"""Mosaic diagrams: the eleven standard tiles on an n x n grid.

Tile ids (fixed artifact convention, see README):

    0   blank
    1   arc W-S          2   arc S-E
    3   arc E-N          4   arc N-W
    5   line W-E         6   line N-S
    7   double arc {W,S} + {E,N}
    8   double arc {S,E} + {N,W}
    9   crossing, over-strand horizontal (W-E over N-S)
    10  crossing, over-strand vertical   (N-S over W-E)

Cells are stored row-major, rows top to bottom, columns left to right.

Strands are followed by two walks that give the same strands in the same
order.  `_walk` steps through one block of cells in Python; it serves
single mosaics (`trace_components`, `to_diagram`, hence `mosaic jones` and
`wirtinger`) and move templates, whose blocks have open strands.  It yields
each strand as integer (entry, exit) endpoint pairs; side letters are made
(`_passages`) only for the callers of `trace_components` and the move-table
generator, and `to_diagram` reads the pairs themselves.
`rows.trace_rows` traces a (k, n^2) array of valid mosaics at once with
numpy pointer jumping; it serves the members of an orbit, and lives in its
own module so that this one does not import numpy.  Both are kept
because each loses where the other wins (2 vCPUs, best of 300): on one
random 4x4 to 12x12 mosaic the batched walk takes 55-84 us against 8-82 us
for `_walk`, while on the 1,348 members of the 4x4 unknot orbit it takes
2.5 ms against 16 ms member by member.  Orbit observables break even at
12 to 20 members (`cli._BATCH_MEMBERS`).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import lru_cache

from .errors import KnotfieldError, MosaicParseError
from .numerals import read_int

N, E, S, W = "N", "E", "S", "W"
SIDES = (N, E, S, W)
OPPOSITE = {N: S, S: N, E: W, W: E}

# Connection pairs per tile id.
TILE_PAIRS = {
    0: (),
    1: (frozenset({W, S}),),
    2: (frozenset({S, E}),),
    3: (frozenset({E, N}),),
    4: (frozenset({N, W}),),
    5: (frozenset({W, E}),),
    6: (frozenset({N, S}),),
    7: (frozenset({W, S}), frozenset({E, N})),
    8: (frozenset({S, E}), frozenset({N, W})),
    9: (frozenset({W, E}), frozenset({N, S})),
    10: (frozenset({W, E}), frozenset({N, S})),
}

# For crossing tiles, the pair carried by the over-strand.
CROSSING_OVER = {9: frozenset({W, E}), 10: frozenset({N, S})}
CROSSING_TILES = frozenset(CROSSING_OVER)

# Which sides of each tile carry a connection point.
TILE_SIDES = {t: frozenset().union(*pairs) if pairs else frozenset() for t, pairs in TILE_PAIRS.items()}

NUM_TILES = 11

# The exit side of a strand entering tile t at side s, for every (t, s) on a
# connection pair: the single source of tile connectivity for the walk.
TILE_EXIT = {(t, a): b for t, pairs in TILE_PAIRS.items()
             for pair in pairs for a, b in (tuple(pair), tuple(pair)[::-1])}

# The walk's integer form of TILE_EXIT.  A strand endpoint is cell * 4 + side,
# sides numbered in SIDES order; _EXIT[tile * 4 + entry side] is the exit
# side, -1 where the tile has no connection point at the entry side.
_EXIT = [SIDES.index(TILE_EXIT[t, s]) if (t, s) in TILE_EXIT else -1
         for t in range(NUM_TILES) for s in SIDES]

# Where the closed strands through each tile start: at the side of each of
# its pairs whose letter sorts first, pairs in TILE_PAIRS order.
_STARTS = [tuple(SIDES.index(min(pair)) for pair in TILE_PAIRS[t]) for t in range(NUM_TILES)]


BOUNDARY_FAULT = "connection point on outer boundary"
INTERIOR_FAULT = "mismatched interior edge"


@dataclass(frozen=True)
class Mosaic:
    """An n x n grid of tile ids; immutable value object."""

    n: int
    cells: tuple

    def __post_init__(self):
        if self.n < 1:
            raise KnotfieldError(f"lattice size must be positive, got {self.n}")
        if not isinstance(self.cells, tuple):
            object.__setattr__(self, "cells", tuple(self.cells))
        if len(self.cells) != self.n * self.n:
            raise KnotfieldError(
                f"expected {self.n * self.n} cells for n={self.n}, got {len(self.cells)}"
            )

    def tile(self, r, c):
        return self.cells[r * self.n + c]

    def with_cells(self, updates):
        """Return a copy with {(r, c): tile} replacements applied."""
        cells = list(self.cells)
        for (r, c), t in updates.items():
            cells[r * self.n + c] = t
        return Mosaic(self.n, tuple(cells))


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    bad_edges: tuple = ()

    # Each offending edge is ("h"|"v", r, c, reason).  Horizontal edge
    # ("h", r, c) separates cell (r-1, c) from (r, c); r=0 and r=n are the
    # outer boundary.  Vertical edge ("v", r, c) separates (r, c-1) from (r, c).


def _edge_faults(rows, cols, cells):
    """Every edge of a rows x cols block of cells with a connection point on
    one side only, as (kind, r, c, reason) in the ValidationReport edge
    convention: horizontal edges row by row, then vertical ones.

    On the block's outer boundary the reason is BOUNDARY_FAULT, inside it
    INTERIOR_FAULT.
    """
    sides = [TILE_SIDES[t] for t in cells]
    bad = []
    for r in range(rows + 1):
        for c in range(cols):
            above = r > 0 and S in sides[(r - 1) * cols + c]
            below = r < rows and N in sides[r * cols + c]
            if above != below:
                bad.append(("h", r, c, BOUNDARY_FAULT if r in (0, rows) else INTERIOR_FAULT))
    for r in range(rows):
        for c in range(cols + 1):
            left = c > 0 and E in sides[r * cols + c - 1]
            right = c < cols and W in sides[r * cols + c]
            if left != right:
                bad.append(("v", r, c, BOUNDARY_FAULT if c in (0, cols) else INTERIOR_FAULT))
    return bad


def validate(m: Mosaic) -> ValidationReport:
    """Check the suitably-connected condition edge by edge."""
    for i, t in enumerate(m.cells):
        if not isinstance(t, int) or not 0 <= t < NUM_TILES:
            raise KnotfieldError(f"malformed tile id {t!r} at cell {i}")
    bad = _edge_faults(m.n, m.n, m.cells)
    return ValidationReport(valid=not bad, bad_edges=tuple(bad))


@lru_cache(maxsize=None)
def _across(rows, cols):
    """For each endpoint of a rows x cols block, the endpoint facing it in
    the neighbouring cell, or -1 on the block's boundary."""
    out = []
    for cell in range(rows * cols):
        r, c = divmod(cell, cols)
        for side, (dr, dc) in enumerate(((-1, 0), (0, 1), (1, 0), (0, -1))):  # N, E, S, W
            if 0 <= r + dr < rows and 0 <= c + dc < cols:
                out.append(((r + dr) * cols + c + dc) * 4 + (side + 2) % 4)
            else:
                out.append(-1)
    return out


def _walk(rows, cols, cells, faults):
    """Follow the strands of a rows x cols block of tile ids 0..10, each as a
    list of (entry, exit) endpoint pairs, one per passage through a cell.

    Open strands start at the block's boundary `faults` (from _edge_faults,
    in their order) and end where they next leave the block; closed strands
    start at the smaller side of each untraversed pair, cells in row-major
    order.  Returns (open strands, closed strands), or None if a strand
    enters a side its tile lacks or a closed strand leaves the block: a
    block without faults meets neither.

    An endpoint is cell * 4 + side, sides numbered in SIDES order; the walk
    steps through the _EXIT and _across tables and makes no side letters
    (`_passages` makes them).
    """
    across = _across(rows, cols)
    used = bytearray(4 * rows * cols)  # endpoints already traversed

    def follow(start):
        """(entry, exit) endpoint pairs from `start` until the strand closes
        or leaves the block, and whether it left; None at a missing side."""
        path = []
        e = start
        while True:
            k = _EXIT[cells[e >> 2] * 4 + (e & 3)]
            if k < 0:
                return None
            x = (e & -4) | k
            path.append((e, x))
            used[e] = used[x] = 1
            e = across[x]
            if e < 0 or e == start:
                return path, e < 0

    opened = []
    for kind, r, c, _ in faults:
        if kind == "h":
            e = c * 4 if r == 0 else ((rows - 1) * cols + c) * 4 + 2
        else:
            e = r * cols * 4 + 3 if c == 0 else (r * cols + cols - 1) * 4 + 1
        if not used[e]:
            walked = follow(e)
            if walked is None:
                return None
            opened.append(walked[0])
    closed = []
    for cell, t in enumerate(cells):
        for side in _STARTS[t]:
            if not used[cell * 4 + side]:
                walked = follow(cell * 4 + side)
                if walked is None or walked[1]:
                    return None
                closed.append(walked[0])
    return opened, closed


def _passages(path):
    """A strand's (entry, exit) endpoint pairs from _walk as its
    (cell, entry_side, exit_side) passages."""
    return tuple((e >> 2, SIDES[e & 3], SIDES[x & 3]) for e, x in path)


@dataclass(frozen=True)
class Strand:
    """A closed strand: cyclic sequence of (cell, entry_side, exit_side) passages."""

    passages: tuple


def trace_components(m: Mosaic):
    """Follow every connection pair into closed strands.

    Requires a valid mosaic; every pair belongs to exactly one strand.
    """
    return [Strand(_passages(path)) for path in _closed_paths(m)]


def _closed_paths(m: Mosaic):
    """The closed strands of a valid mosaic as _walk gives them, (entry,
    exit) endpoint pairs.  The walk meets every fault of an invalid mosaic,
    and only then is the mosaic validated, for the error message."""
    try:
        cells = bytes(m.cells)  # a float, a negative or a large id raises
    except (TypeError, ValueError):
        cells = None
    walked = _walk(m.n, m.n, cells, ()) if cells is not None and max(cells) < NUM_TILES else None
    if walked is None:
        rep = validate(m)  # raises on a malformed tile id
        raise KnotfieldError(f"mosaic is not suitably connected ({len(rep.bad_edges)} bad edges)")
    return walked[1]


def _entry_code(t, s):
    """rows.trace_rows' code for entering tile t at side s: -1 without a
    connection point there, else 4 * the entry's order key + the exit side.
    The key is 2 * (index of the side's pair in TILE_PAIRS), plus 1 unless
    the side is where _walk starts that pair."""
    if _EXIT[t * 4 + s] < 0:
        return -1
    p = next(i for i, pair in enumerate(TILE_PAIRS[t]) if SIDES[s] in pair)
    return 4 * (2 * p + (s != _STARTS[t][p])) + _EXIT[t * 4 + s]


def count_crossings(m: Mosaic) -> int:
    return sum(1 for t in m.cells if t in CROSSING_TILES)


# ---------------------------------------------------------------------------
# Serialization


def encode(m: Mosaic) -> str:
    """Canonical text form: a header line with n, then n rows of tile ids."""
    lines = [str(m.n)]
    for r in range(m.n):
        lines.append(" ".join(str(m.cells[r * m.n + c]) for c in range(m.n)))
    return "\n".join(lines) + "\n"


# Renumbers tile ids so that bytes compare as the ids' decimal strings do in
# encode(): 0 < 1 < 10 < 2 < ... < 9.
_LABEL_ORDER = bytes.maketrans(bytes(sorted(range(NUM_TILES), key=str)),
                               bytes(range(NUM_TILES)))

# The tokens encode() writes for the tile ids, "0" to "10": decode() reads no other.
_TILE_IDS = {str(t): t for t in range(NUM_TILES)}


def label_key(cells) -> bytes:
    """Sort key of a cell row: same-size mosaics sort by it exactly as their
    encode() texts sort, without building the text."""
    return bytes(cells).translate(_LABEL_ORDER)


def decode(text: str) -> Mosaic:
    """The mosaic of encode()'s text: the header n is read by the shared
    `numerals.read_int`, unsigned, and each tile id is a token encode()
    writes, so a sign, an underscore, a non-ASCII digit, "01" or "11" raises at its place."""
    lines = text.splitlines()
    if not lines:
        raise MosaicParseError("empty mosaic document", line=1)
    try:
        n = read_int(lines[0].strip(), signed=False)
    except ValueError:
        raise MosaicParseError(f"bad header {lines[0]!r}, expected an integer n", line=1)
    if n < 1:
        raise MosaicParseError(f"lattice size must be positive, got {n}", line=1)
    if len(lines) < n + 1:
        raise MosaicParseError(f"expected {n} rows after the header, got {len(lines) - 1}",
                               line=len(lines))
    cells = []
    for r in range(n):
        fields = lines[r + 1].split()
        if len(fields) != n:
            raise MosaicParseError(f"expected {n} tile ids, got {len(fields)}", line=r + 2)
        for c, f in enumerate(fields):
            t = _TILE_IDS.get(f)
            if t is None:
                raise MosaicParseError(f"bad tile id {f!r}", line=r + 2, column=c + 1)
            cells.append(t)
    for i in range(n + 1, len(lines)):
        if lines[i].strip():
            raise MosaicParseError(f"unexpected text after the {n} rows", line=i + 1)
    return Mosaic(n, tuple(cells))


def from_label(text: str) -> Mosaic:
    """The mosaic a basis label names.  A label is the canonical encode()
    text of its mosaic; any other text raises, even one that decodes."""
    m = decode(text)
    if encode(m) != text:
        raise KnotfieldError(f"label {text!r} is not a canonical mosaic encoding")
    return m


def to_json(m: Mosaic) -> str:
    return json.dumps({"n": m.n, "cells": list(m.cells)})


def from_json(text: str) -> Mosaic:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MosaicParseError(f"bad JSON: {exc.msg}", line=exc.lineno, column=exc.colno)
    if not isinstance(obj, dict) or "n" not in obj or "cells" not in obj:
        raise MosaicParseError('expected an object {"n": int, "cells": [int]}')
    n, cells = obj["n"], obj["cells"]
    if type(n) is not int:  # not bool, not float
        raise MosaicParseError(f"lattice size must be an integer, got {n!r}")
    if not isinstance(cells, (list, tuple)):
        raise MosaicParseError(f"cells must be a list of tile ids, got {cells!r}")
    for i, t in enumerate(cells):
        if type(t) is not int or not 0 <= t < NUM_TILES:
            raise MosaicParseError(f"tile id {t!r} outside 0..{NUM_TILES - 1} at cell {i}")
    return Mosaic(n, tuple(cells))


def load(text: str) -> Mosaic:
    """Accept either the text format or the JSON form."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return from_json(stripped)
    return decode(text)


# ---------------------------------------------------------------------------
# Enumeration and sampling of valid mosaics

# Admissible tiles given required W/N presence and forbidden E/S presence.


def _admissible(w_required, n_required, e_forbidden, s_forbidden):
    out = []
    for t in range(NUM_TILES):
        sides = TILE_SIDES[t]
        if (W in sides) != w_required:
            continue
        if (N in sides) != n_required:
            continue
        if e_forbidden and E in sides:
            continue
        if s_forbidden and S in sides:
            continue
        out.append(t)
    return tuple(out)


_ADMISSIBLE = {
    (wr, nr, ef, sf): _admissible(wr, nr, ef, sf)
    for wr in (False, True) for nr in (False, True)
    for ef in (False, True) for sf in (False, True)
}


def _depth_first(n: int, rng=None):
    """Yield n x n mosaics depth-first over the cells in row-major order.

    Each cell tries the tiles its west and north neighbours admit; with
    rng, in an order shuffled by rng.shuffle on entering the cell.
    """
    total = n * n
    cells = [0] * total

    def rec(i):
        if i == total:
            yield Mosaic(n, tuple(cells))
            return
        r, c = divmod(i, n)
        wr = c > 0 and E in TILE_SIDES[cells[i - 1]]
        nr = r > 0 and S in TILE_SIDES[cells[i - n]]
        options = _ADMISSIBLE[(wr, nr, c == n - 1, r == n - 1)]
        if rng is not None:
            options = list(options)
            rng.shuffle(options)
        for t in options:
            cells[i] = t
            yield from rec(i + 1)

    return rec(0)


def enumerate_mosaics(n: int):
    """Yield every suitably-connected n x n mosaic (DFS with edge constraints)."""
    return _depth_first(n)


def random_mosaic(n: int, rng: random.Random) -> Mosaic:
    """The first mosaic of the DFS with every cell's tile order shuffled by rng.

    The DFS always reaches a mosaic (the blank one at the latest); n < 1
    raises KnotfieldError when that mosaic is built."""
    return next(_depth_first(n, rng))
