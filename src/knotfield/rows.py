"""Whole arrays of mosaic rows at once, with numpy.

The members of an orbit are (k, n^2) uint8 arrays of cell rows
(`orbits.Orbit.member_rows()`).  `trace_rows` traces the strands of every
row at once by pointer jumping, with the same strands and passages in the
same order as `mosaic.trace_components` gives row by row; `strand_counts`
counts each row's strands from its output; `row_diagrams` builds each
distinct diagram of the rows once, equal to `diagram.to_diagram` row by row.
The one-mosaic code in `mosaic` and `diagram` stays pure Python, so the
commands that read a single mosaic do not import numpy.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .diagram import SIDE_VECTORS, from_traversal
from .errors import KnotfieldError
from .mosaic import CROSSING_OVER, CROSSING_TILES, NUM_TILES, SIDES, _across, _entry_code

_ENTRY = np.array([[_entry_code(t, s) for s in range(4)] for t in range(NUM_TILES)],
                  dtype=np.int8)
_PAIRS = ((_ENTRY >= 0).sum(axis=1) // 2).astype(np.uint8)  # connection pairs per tile

# Endpoints traced at once by trace_rows: its temporaries stay a few hundred
# KB whatever the number of rows.
_TRACE_CHUNK = 1 << 14


@lru_cache(maxsize=None)
def _across_rows(n, rows):
    """_across(n, n) for `rows` consecutive n x n rows, endpoints numbered
    on through the rows."""
    across = np.array(_across(n, n), dtype=np.int32)
    out = np.add.outer(np.arange(rows, dtype=np.int32) * across.size, across).ravel()
    out.setflags(write=False)
    return out


def trace_rows(rows, n):
    """Every strand of every row of a (k, n^2) uint8 array of valid n x n
    mosaics, as flat int32 arrays (row, strand, cell, entry, exit): one entry
    per passage, strands numbered 0, 1, ... across all rows, in the order of
    trace_components(Mosaic(n, row)) strand by strand and passage by
    passage.  Sides are numbered in SIDES order.  Rows are not validated.

    The walk is _walk's, on all rows at once.  Each entry endpoint (cell * 4
    + side) with a connection point steps to the endpoint facing its exit,
    so every strand is two cycles of entries, one per orientation.  Pointer
    jumping finds each cycle's smallest entry key (cell, then pair position
    in _STARTS, then whether the pair is entered away from its start side)
    and how many steps ahead it lies.  The cycle whose minimum enters at a
    start side is the orientation _walk takes, and that minimum is where it
    starts; the steps ahead rank the passages.  Rows go a chunk of about
    _TRACE_CHUNK endpoints at a time.
    """
    rows = np.asarray(rows, dtype=np.uint8).reshape(-1, n * n)
    step = max(1, _TRACE_CHUNK // (4 * n * n))
    across = _across_rows(n, step)
    out = np.empty((5, int(_PAIRS[rows].sum())), dtype=np.int32)  # a passage per pair
    done = strands = 0
    for r0 in range(0, len(rows), step):
        part, count = _trace_chunk(rows[r0:r0 + step], across)
        part[0] += r0
        part[1] += strands
        out[:, done:done + part.shape[1]] = part
        done += part.shape[1]
        strands += count
    return tuple(out)


def strand_counts(row, strand, k):
    """The number of strands in each of k rows, from trace_rows' row and
    strand arrays."""
    first = np.ones(strand.size, dtype=bool)
    first[1:] = strand[1:] != strand[:-1]
    return np.bincount(row[first], minlength=k)


def _trace_chunk(block, across):
    """trace_rows on one block of rows: its (5, passages) int32 table, rows
    and strands counted from 0 in the block, and the number of strands."""
    cells = block.shape[1]
    entries = _ENTRY[block]
    longest = int(_PAIRS[block].sum(axis=1).max())
    live = np.flatnonzero(entries >= 0)
    code = entries.ravel()[live]
    exit_end = (live & -4) | (code & 3)
    index = np.empty(entries.size, np.int32)
    index[live] = np.arange(live.size)
    jump = index[across[exit_end]]
    # Each entry's least key over the next `span` entries, shifted up, plus
    # how far ahead its first occurrence lies: min() keeps the nearer of ties.
    best = ((live & -4) | (code >> 2)) << 32
    span = 1
    while span < longest:
        best = np.minimum(best, best[jump] + span)
        jump = jump[jump]
        span *= 2
    kept = np.flatnonzero((best & (1 << 32)) == 0)
    best = best[kept]
    low, ahead = best >> 32, best & 0xFFFFFFFF
    starts = np.sort(low[ahead == 0])
    strand = np.searchsorted(starts, low)
    length = np.bincount(strand, minlength=starts.size)
    end = np.cumsum(length)
    order = np.where(ahead > 0, end[strand] - ahead, end[strand] - length[strand])
    entry = live[kept]
    out = np.empty((5, kept.size), np.int32)
    out[0, order] = (entry >> 2) // cells
    out[1, order] = strand
    out[2, order] = (entry >> 2) % cells
    out[3, order] = entry & 3
    out[4, order] = code[kept] & 3
    return out, starts.size


# to_diagram's rules as tables: per tile whether it is a crossing; per tile
# and exit side whether that passage is the over-strand; per exit side the
# direction of travel.
_IS_CROSSING = np.array([t in CROSSING_TILES for t in range(NUM_TILES)])
_OVER = np.array([[t in CROSSING_TILES and side in CROSSING_OVER[t] for side in SIDES]
                  for t in range(NUM_TILES)])
_DIRECTION = np.array([SIDE_VECTORS[side] for side in SIDES], dtype=np.int8)


def row_diagrams(rows, n):
    """The diagrams of a (k, n^2) uint8 array of valid mosaics, each
    distinct one built once: (diagrams, index), where row i's diagram is
    diagrams[index[i]], equal to to_diagram(Mosaic(n, row i)).  Diagrams are
    built in the order of the rows they first appear in, and the first row
    with no component raises as to_diagram does.

    Rows are grouped by a signature that holds exactly what from_traversal
    reads: the row's strand count, then per crossing passage in trace order
    the rank of its cell among the row's crossing cells, whether it passes
    over, the sign of its crossing and whether it is the first on its
    strand.  Rows with one signature have one diagram, and rows with one
    diagram one signature.
    """
    rows = np.asarray(rows, dtype=np.uint8).reshape(-1, n * n)
    k = len(rows)
    row, strand, cell, _, exit_ = trace_rows(rows, n)
    strands = strand_counts(row, strand, k)
    crossing = _IS_CROSSING[rows]
    cross = np.flatnonzero(crossing[row, cell])
    row, strand, cell, exit_ = row[cross], strand[cross], cell[cross], exit_[cross]
    new = np.ones(strand.size, dtype=bool)  # first crossing passage on its strand
    new[1:] = strand[1:] != strand[:-1]
    over = _OVER[rows[row, cell], exit_]
    direction = _DIRECTION[exit_]
    at = row.astype(np.int64) * (n * n) + cell
    travel = np.zeros((2, rows.size, 2), dtype=np.int8)  # under, over direction per cell
    travel[over.astype(np.intp), at] = direction
    (ux, uy), (ox, oy) = travel[0, at].T, travel[1, at].T
    negative = ux * oy - uy * ox < 0
    rank = (np.cumsum(crossing, axis=1) - 1)[row, cell]
    per_row = np.bincount(row, minlength=k)
    begin = np.cumsum(per_row) - per_row
    signature = np.full((k, 1 + int(per_row.max(initial=0))), -1, dtype=np.int32)
    signature[:, 0] = strands
    signature[row, 1 + np.arange(row.size) - begin[row]] = \
        ((rank * 2 + over) * 2 + negative) * 2 + new
    # One void item per row: np.unique groups equal bytes without a row-wise sort.
    _, first, inverse = np.unique(signature.view(np.dtype((np.void, signature[0].nbytes))),
                                  return_index=True, return_inverse=True)
    built = np.argsort(first)  # distinct signatures in the order of their first rows
    diagrams = []
    for i in first[built].tolist():
        if not strands[i]:
            raise KnotfieldError("mosaic has zero components")
        components = [[] for _ in range(strands[i])]
        c = -1
        for j in range(begin[i], begin[i] + per_row[i]):
            c += bool(new[j])
            components[c].append((int(cell[j]), bool(over[j]), SIDE_VECTORS[SIDES[exit_[j]]]))
        diagrams.append(from_traversal(components))
    position = np.empty(len(built), dtype=np.int64)
    position[built] = np.arange(len(built))
    return diagrams, position[inverse.reshape(-1)]
