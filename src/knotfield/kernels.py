"""The move-expansion kernel: the hot loop of orbit closure.

Given mosaic states as bytes and the window tables of a packed move
table, produce every neighbor state, with the source state and the
instance that reached it.  `window_tables` builds the tables from the
arrays that `orbits.compile_instances` packs; they are a read-only value,
built once per (table, n) inside that cache and passed in by the caller,
so this module keeps no state.  `expand_chunks` is the one entry point, for
orbit closure and witnesses alike: it expands a BFS level with numpy,
yielding each bounded chunk of states as soon as it is done, so a caller
that stops reading (orbit closure, once past its budget) expands no further
chunk and never holds a whole level's neighbors.  `expand`, the same kernel
on one state, is kept only because perfbench binds it.  BACKEND names the
kernel in benchmark reports.

Moves are matched by window code.  A window is the block of cells that
instances of one shape share at one anchor; the default table at n = 4
has 1,320 instances in 13 windows.  A window's code reads its tiles, row
by row, as the digits of a base-12 number.  Each window has one sorted
table of the codes of `pattern_a` and `pattern_b` of every instance on it
(several instances may share a code).  One matrix product codes every
window of a chunk of states, and `np.searchsorted` then finds exactly the
instances with a matching pattern; no other cell is compared.  A byte
above 10 reads as the digit 11, which no pattern has, so it matches
nothing.

A matched move is written as one precomputed delta row: the row of table
entry k holds target - source (mod 256) at its instance's cells and 0
elsewhere, so a chunk's neighbors are its source rows gathered once plus
the delta rows of their entries, and bytes off the window (above 10 or
not) come through unchanged.  A chunk comes back as parallel arrays of
sources and instances and a list of neighbors, not one tuple per neighbor.
Against a 2-D scatter of the target patterns and a list of triples, this
took the 1,348-member 4x4 unknot closure from 4.7 to 3.7 ms of CPU time
(best of 200, 2 vCPUs, one BLAS thread), and a 5x5 circle closed up to
3,000 members from about 17 to 12 ms.  A hashed window-code table (open
addressing, Fibonacci hashing) cut the lookup itself from 0.87 to about
0.1 ms but cost more in per-chunk probe calls than it saved end to end,
and a direct-address table took 1.5 s to build, so `np.searchsorted`
stays.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

BACKEND = "python"

# Upper bound on the (state, window) pairs coded at once.  A pair matches
# at most a few instances (4 in the default table), so this caps the
# kernel's temporary arrays at a few hundred KB whatever the frontier size.
_CHUNK_PAIRS = 1 << 11

_BASE = 12
# The code digit of each byte: a tile id is its own digit, any other byte 11.
# Codes plus window offsets stay far below 2^53, so float64 products (BLAS)
# are exact.
_DIGIT = np.minimum(np.arange(256), _BASE - 1).astype(np.float64)

# The window tables of one packed instance table of n_inst instances.
# weights[c, w] is the place value of cell c in window w's code (0 off the
# window), and offsets[w] keeps the windows' codes apart.  Entry k of the
# sorted `keys` is one pattern of instance `inst[k]`, and run[k] counts the
# entries from k on with the same key.  Row k of `delta` (one column per
# cell that any window covers) is the move matching entry k as a byte
# difference: target - source (mod 256) at the instance's cells, 0
# elsewhere.
WindowTables = namedtuple("WindowTables", "n_inst weights offsets keys run inst delta")


def window_tables(pos, pat_a, pat_b, lens):
    """The window tables of a packed instance table, as `expand_chunks` takes
    them.  pos/pat_a/pat_b are (num_instances, max_len) int arrays (padded),
    lens the per-instance pattern length.  The arrays come back read-only,
    since callers share one value.
    """
    n_inst, max_len = pos.shape
    window_of = {}
    win = np.array([window_of.setdefault(tuple(pos[i, :k].tolist()), len(window_of))
                    for i, k in enumerate(lens.tolist())], dtype=np.intp)
    # Padded cells have place value 0, and write cell 0's new value again.
    pad = np.arange(max_len) >= lens[:, None]
    power = np.maximum(lens[:, None] - 1 - np.arange(max_len), 0)
    value = np.where(pad, 0, np.int64(_BASE) ** power)
    weights = np.zeros((int(pos.max(initial=-1)) + 1, len(window_of)))
    weights[pos[~pad], np.broadcast_to(win[:, None], pad.shape)[~pad]] = value[~pad]
    offsets = np.arange(len(window_of)) * float(_BASE ** max_len)

    # Padded cells repeat the first cell, so assigning them writes its
    # difference again.
    pos = np.where(pad, pos[:, :1], pos)
    pat_a = np.where(pad, pat_a[:, :1], pat_a)
    pat_b = np.where(pad, pat_b[:, :1], pat_b)
    keys = np.concatenate([(pat_a * value).sum(axis=1) + offsets[win],
                           (pat_b * value).sum(axis=1) + offsets[win]])
    order = np.argsort(keys)
    keys = keys[order]
    run = np.searchsorted(keys, keys, "right") - np.arange(len(keys))
    # Matching pattern_a writes pattern_b, and the other way round.
    delta = np.zeros((2 * n_inst, len(weights)), dtype=np.uint8)
    delta[np.arange(2 * n_inst)[:, None], np.tile(pos, (2, 1))] = np.concatenate(
        [pat_b - pat_a, pat_a - pat_b]).astype(np.uint8)
    tables = WindowTables(n_inst, weights, offsets, keys, run,
                          np.tile(np.arange(n_inst), 2)[order], delta[order])
    for arr in tables[1:]:
        arr.setflags(write=False)
    return tables


def expand(state, pos, pat_a, pat_b, lens):
    """Apply every instance to `state`; return the list of changed states.

    The instance arrays are as for `window_tables`, whose tables this builds
    on every call.  Neighbors come back in instance order.  The package
    itself calls `expand_chunks`; this stays only because perfbench's
    `_scramble` and tracer bind it.
    """
    chunks = expand_chunks([state], window_tables(pos, pat_a, pat_b, lens))
    return [nb for *_, neighbors in chunks for nb in neighbors]


def expand_chunks(states, tables):
    """Apply every instance to every state of a BFS level, one chunk of
    states at a time.

    `states` is a sequence of equal-length bytes and `tables` the
    `window_tables` of the instance table.  Yields (block, rows, inst,
    neighbors) for each chunk: `block` is the slice of `states` the chunk
    expands, in order, and `rows` (indices into `block`), `inst` (int
    arrays) and the list `neighbors` run in parallel, ordered by source
    state and then by instance.  A caller that stops reading expands no
    further chunk.
    """
    n_inst = tables.n_inst
    if not states or n_inst == 0:
        return
    width = len(states[0])
    frontier = np.frombuffer(b"".join(states), dtype=np.uint8).reshape(len(states), width)
    n_win = len(tables.offsets)
    n_cells = len(tables.weights)

    rows_per_chunk = max(1, _CHUNK_PAIRS // n_win)
    for start in range(0, len(states), rows_per_chunk):
        block = frontier[start:start + rows_per_chunk]
        codes = (_DIGIT[block[:, :n_cells]] @ tables.weights + tables.offsets).ravel()
        lo = np.minimum(np.searchsorted(tables.keys, codes), len(tables.keys) - 1)
        count = np.where(tables.keys[lo] == codes, tables.run[lo], 0)
        # Entry lo, lo + 1, ..., lo + count - 1 for each (state, window) pair.
        pair = np.repeat(np.arange(len(codes)), count)
        entry = np.arange(len(pair)) + np.repeat(lo - np.cumsum(count) + count, count)
        rows, inst = pair // n_win, tables.inst[entry]
        order = np.argsort(rows * n_inst + inst, kind="stable")
        rows, inst, entry = rows[order], inst[order], entry[order]
        new = block[rows]
        new[:, :n_cells] += tables.delta[entry]
        yield (states[start:start + rows_per_chunk], rows, inst,
               new.view(f"V{width}").ravel().tolist())
