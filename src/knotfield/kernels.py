"""The move-expansion kernel: the hot loop of orbit closure.

Given mosaic states as bytes and the move instances packed by
`orbits.compile_instances`, produce every neighbor state, with the source
state and the instance that reached it.  `expand_level` is the only
implementation: it expands a whole BFS level with numpy, a bounded chunk
of (state, instance) pairs at a time, and `expand` is the same kernel on
one state.  BACKEND names it in benchmark reports.
"""

from __future__ import annotations

import numpy as np

BACKEND = "python"

# Upper bound on the (state, instance) pairs gathered at once.  It caps the
# kernel's temporary arrays at a few MB whatever the frontier size.
_CHUNK_PAIRS = 1 << 16


def expand(state, pos, pat_a, pat_b, lens):
    """Apply every instance to `state`; return the list of changed states.

    pos/pat_a/pat_b are (num_instances, max_len) int arrays (padded), lens the
    per-instance pattern length.  Neighbors come back in instance order.
    """
    return [nb for _, _, nb in expand_level([state], pos, pat_a, pat_b, lens)]


def expand_level(states, pos, pat_a, pat_b, lens):
    """Apply every instance to every state of a BFS level.

    `states` is a sequence of equal-length bytes; the instance arrays are as
    for `expand`.  Returns (source index, instance index, neighbor bytes)
    triples ordered by source state and then by instance, so their
    neighbors are the concatenation of `expand(s, ...)` over `states`.
    """
    n_inst = len(lens)
    if not states or n_inst == 0:
        return []
    width = len(states[0])
    frontier = np.frombuffer(b"".join(states), dtype=np.uint8).reshape(len(states), width)

    # Pad each pattern with copies of its first cell: a padded cell then
    # matches exactly when cell 0 does, and writes back cell 0's new value.
    pad = np.arange(pos.shape[1]) >= lens[:, None]
    pos = np.where(pad, pos[:, :1], pos)
    pat_a = np.where(pad, pat_a[:, :1], pat_a)
    pat_b = np.where(pad, pat_b[:, :1], pat_b)

    # The most selective cell of each instance on this level: the one whose
    # two pattern tiles occur least often at its position in the frontier.
    counts = np.stack([np.bincount(column, minlength=256) for column in frontier.T])
    hits = counts[pos, pat_a] + np.where(pat_a != pat_b, counts[pos, pat_b], 0)
    key = (np.arange(n_inst), np.argmin(hits, axis=1))
    key_pos, key_a, key_b = pos[key], pat_a[key], pat_b[key]

    out = []
    rows_per_chunk = max(1, _CHUNK_PAIRS // n_inst)
    for start in range(0, len(states), rows_per_chunk):
        block = frontier[start:start + rows_per_chunk]
        key_cells = block[:, key_pos]
        rows, inst = np.nonzero((key_cells == key_a) | (key_cells == key_b))
        cells = block[rows[:, None], pos[inst]]
        match_a = (cells == pat_a[inst]).all(axis=1)
        match_b = (cells == pat_b[inst]).all(axis=1)
        hit = match_a != match_b  # both cannot hold: the loader forbids a == b
        rows, inst, match_a = rows[hit], inst[hit], match_a[hit]
        new = block[rows]
        new[np.arange(len(rows))[:, None], pos[inst]] = np.where(
            match_a[:, None], pat_b[inst], pat_a[inst])
        buf = new.tobytes()
        out.extend((r, i, buf[k * width:(k + 1) * width])
                   for k, (r, i) in enumerate(zip((rows + start).tolist(), inst.tolist())))
    return out
