"""The move-expansion kernel: the hot loop of orbit closure.

Given a mosaic state as bytes and the move instances packed by
`orbits.compile_instances`, produce every neighbor state.  This is the only
implementation; BACKEND names it in benchmark reports.
"""

from __future__ import annotations

BACKEND = "python"


def expand(state, pos, pat_a, pat_b, lens):
    """Apply every instance to `state`; return the list of changed states.

    pos/pat_a/pat_b are (num_instances, max_len) int arrays (padded), lens the
    per-instance pattern length.  Neighbors come back in instance order.
    """
    out = []
    n_inst = len(lens)
    for i in range(n_inst):
        k = lens[i]
        row_pos = pos[i]
        row_a = pat_a[i]
        row_b = pat_b[i]
        match_a = True
        match_b = True
        for j in range(k):
            v = state[row_pos[j]]
            if v != row_a[j]:
                match_a = False
            if v != row_b[j]:
                match_b = False
            if not match_a and not match_b:
                break
        if match_a == match_b:  # neither, or a == b cannot happen (loader forbids)
            continue
        src = row_b if match_a else row_a
        new = bytearray(state)
        for j in range(k):
            new[row_pos[j]] = src[j]
        out.append(bytes(new))
    return out
