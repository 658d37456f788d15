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
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from .errors import KnotfieldError, MosaicParseError

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


def tile_partner(tile, side):
    """Return the side connected to `side` on `tile`, or None."""
    for pair in TILE_PAIRS[tile]:
        if side in pair:
            (other,) = pair - {side}
            return other
    return None


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


def validate(m: Mosaic) -> ValidationReport:
    """Check the suitably-connected condition edge by edge."""
    for i, t in enumerate(m.cells):
        if not isinstance(t, int) or not 0 <= t < NUM_TILES:
            raise KnotfieldError(f"malformed tile id {t!r} at cell {i}")
    n = m.n
    bad = []

    def has(r, c, side):
        return side in TILE_SIDES[m.tile(r, c)]

    for r in range(n + 1):
        for c in range(n):
            above = has(r - 1, c, S) if r > 0 else None
            below = has(r, c, N) if r < n else None
            if above is None and below:
                bad.append(("h", r, c, "connection point on outer boundary"))
            elif below is None and above:
                bad.append(("h", r, c, "connection point on outer boundary"))
            elif above is not None and below is not None and above != below:
                bad.append(("h", r, c, "mismatched interior edge"))
    for r in range(n):
        for c in range(n + 1):
            left = has(r, c - 1, E) if c > 0 else None
            right = has(r, c, W) if c < n else None
            if left is None and right:
                bad.append(("v", r, c, "connection point on outer boundary"))
            elif right is None and left:
                bad.append(("v", r, c, "connection point on outer boundary"))
            elif left is not None and right is not None and left != right:
                bad.append(("v", r, c, "mismatched interior edge"))
    return ValidationReport(valid=not bad, bad_edges=tuple(bad))


@dataclass(frozen=True)
class Strand:
    """A closed strand: cyclic sequence of (cell, entry_side, exit_side) passages."""

    passages: tuple


def trace_components(m: Mosaic):
    """Follow every connection pair into closed strands.

    Requires a valid mosaic; every pair belongs to exactly one strand.
    """
    rep = validate(m)
    if not rep.valid:
        raise KnotfieldError(f"mosaic is not suitably connected ({len(rep.bad_edges)} bad edges)")
    n = m.n
    used = set()  # (cell, side) endpoints already traversed
    strands = []
    for start_cell in range(n * n):
        for pair in TILE_PAIRS[m.cells[start_cell]]:
            entry = min(pair)  # deterministic starting direction
            if (start_cell, entry) in used:
                continue
            passages = []
            cell, side = start_cell, entry
            while True:
                exit_side = tile_partner(m.cells[cell], side)
                passages.append((cell, side, exit_side))
                used.add((cell, side))
                used.add((cell, exit_side))
                r, c = divmod(cell, n)
                if exit_side == N:
                    r -= 1
                elif exit_side == S:
                    r += 1
                elif exit_side == E:
                    c += 1
                else:
                    c -= 1
                cell, side = r * n + c, OPPOSITE[exit_side]
                if cell == start_cell and side == entry:
                    break
            strands.append(Strand(tuple(passages)))
    return strands


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


def label_key(cells) -> bytes:
    """Sort key of a cell row: same-size mosaics sort by it exactly as their
    encode() texts sort, without building the text."""
    return bytes(cells).translate(_LABEL_ORDER)


def decode(text: str) -> Mosaic:
    lines = text.splitlines()
    if not lines:
        raise MosaicParseError("empty mosaic document", line=1)
    try:
        n = int(lines[0].strip())
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
            try:
                t = int(f)
            except ValueError:
                raise MosaicParseError(f"bad tile id {f!r}", line=r + 2, column=c + 1)
            if not 0 <= t < NUM_TILES:
                raise MosaicParseError(f"tile id {t} outside 0..{NUM_TILES - 1}",
                                       line=r + 2, column=c + 1)
            cells.append(t)
    return Mosaic(n, tuple(cells))


def to_json(m: Mosaic) -> str:
    return json.dumps({"n": m.n, "cells": list(m.cells)})


def from_json(obj) -> Mosaic:
    if isinstance(obj, str):
        try:
            obj = json.loads(obj)
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


def enumerate_mosaics(n: int):
    """Yield every suitably-connected n x n mosaic (DFS with edge constraints)."""
    total = n * n
    cells = [0] * total

    def rec(i):
        if i == total:
            yield Mosaic(n, tuple(cells))
            return
        r, c = divmod(i, n)
        wr = c > 0 and E in TILE_SIDES[cells[i - 1]]
        nr = r > 0 and S in TILE_SIDES[cells[i - n]]
        for t in _ADMISSIBLE[(wr, nr, c == n - 1, r == n - 1)]:
            cells[i] = t
            yield from rec(i + 1)

    yield from rec(0)


def random_mosaic(n: int, rng: random.Random) -> Mosaic:
    """Sample a uniformly random-ish valid mosaic by randomized backtracking DFS."""
    total = n * n
    cells = [0] * total

    def rec(i):
        if i == total:
            return True
        r, c = divmod(i, n)
        wr = c > 0 and E in TILE_SIDES[cells[i - 1]]
        nr = r > 0 and S in TILE_SIDES[cells[i - n]]
        options = list(_ADMISSIBLE[(wr, nr, c == n - 1, r == n - 1)])
        rng.shuffle(options)
        for t in options:
            cells[i] = t
            if rec(i + 1):
                return True
        return False

    if not rec(0):
        raise KnotfieldError(f"no valid mosaic of size {n}")
    return Mosaic(n, tuple(cells))
