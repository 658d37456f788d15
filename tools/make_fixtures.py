#!/usr/bin/env python3
"""Regenerate the pinned mosaic fixtures in src/knotfield/data/.

- trefoil4.mosaic : lexicographically smallest 4x4 trefoil mosaic
- granny8.mosaic  : connected sum trefoil # trefoil spliced on an 8x8 grid
- fig8_5.mosaic   : lexicographically smallest 5x5 figure-eight mosaic
                    (exactly 4 crossing tiles, single component)

Selection is by exhaustive enumeration, so the fixtures are reproducible.
Each `build_<name>()` returns its mosaic without touching the disk; `main`
writes every one as `<name>.mosaic` (the `mosaic.encode` text).
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from knotfield import mosaic as M  # noqa: E402
from knotfield.diagram import to_diagram, jones  # noqa: E402
from knotfield.laurent import LaurentPolynomial  # noqa: E402
from knotfield.mosaic import CROSSING_TILES, TILE_SIDES  # noqa: E402

DATA = pathlib.Path(__file__).resolve().parents[1] / "src/knotfield/data"

TREFOIL_L = LaurentPolynomial({-8: -1, -6: 1, -2: 1})  # V(3_1) in t^(1/2) units
FIG8 = LaurentPolynomial({-4: 1, -2: -1, 0: 1, 2: -1, 4: 1})


def build_trefoil4():
    for m in M.enumerate_mosaics(4):  # enumeration is lexicographic
        if len(M.trace_components(m)) != 1:
            continue
        j = jones(to_diagram(m))
        if j in (TREFOIL_L, TREFOIL_L.mirror()):
            return m
    raise AssertionError("no 4x4 trefoil found")


def splice_vertical(top: M.Mosaic, bottom: M.Mosaic, col: int) -> M.Mosaic:
    """Connected sum: cut one horizontal strand edge at the bottom of `top`
    and one at the top of `bottom`, then join them across the gap."""
    n = top.n
    cells = []
    for r in range(n):
        cells.extend(top.cells[r * n:(r + 1) * n] + (0,) * n)
    for r in range(n):
        cells.extend(bottom.cells[r * n:(r + 1) * n] + (0,) * n)
    big = M.Mosaic(2 * n, tuple(cells))

    def recut(tile, drop, add):
        pairs = [set(p) for p in M.TILE_PAIRS[tile]]
        for p in pairs:
            if drop in p:
                p.discard(drop)
                p.add(add)
        target = tuple(frozenset(p) for p in pairs)
        for t, tp in M.TILE_PAIRS.items():
            if t in CROSSING_TILES:
                continue
            if set(tp) == set(target):
                return t
        return None

    ta, tb = big.tile(n - 1, col), big.tile(n - 1, col + 1)
    tc, td = big.tile(n, col), big.tile(n, col + 1)
    new = {
        (n - 1, col): recut(ta, "E", "S"),
        (n - 1, col + 1): recut(tb, "W", "S"),
        (n, col): recut(tc, "E", "N"),
        (n, col + 1): recut(td, "W", "N"),
    }
    if any(v is None for v in new.values()):
        return None
    return big.with_cells(new)


def build_granny8():
    tref = build_trefoil4()
    n = tref.n
    for col in range(n - 1):
        top_ok = ("E" in TILE_SIDES[tref.tile(n - 1, col)]
                  and tref.tile(n - 1, col) not in CROSSING_TILES
                  and tref.tile(n - 1, col + 1) not in CROSSING_TILES)
        bot_ok = ("E" in TILE_SIDES[tref.tile(0, col)]
                  and tref.tile(0, col) not in CROSSING_TILES
                  and tref.tile(0, col + 1) not in CROSSING_TILES)
        if not (top_ok and bot_ok):
            continue
        big = splice_vertical(tref, tref, col)
        if big is None or not M.validate(big).valid:
            continue
        if len(M.trace_components(big)) != 1:
            continue
        j = jones(to_diagram(big))
        if j == jones(to_diagram(tref)) * jones(to_diagram(tref)):
            return big
    raise AssertionError("no clean splice column found")


def build_fig8_5():
    """Exhaustive 5x5 search restricted to exactly 4 crossing tiles."""
    n = 5
    total = n * n
    cells = [0] * total
    found = []

    def rec(i, ncross):
        if found:
            return
        if i == total:
            m = M.Mosaic(n, tuple(cells))
            if ncross != 4 or len(M.trace_components(m)) != 1:
                return
            j = jones(to_diagram(m))
            if j == FIG8:
                found.append(m)
            return
        r, c = divmod(i, n)
        wr = c > 0 and "E" in TILE_SIDES[cells[i - 1]]
        nr = r > 0 and "S" in TILE_SIDES[cells[i - n]]
        for t in M._ADMISSIBLE[(wr, nr, c == n - 1, r == n - 1)]:
            extra = 1 if t in CROSSING_TILES else 0
            if ncross + extra > 4:
                continue
            cells[i] = t
            rec(i + 1, ncross + extra)
            if found:
                return

    rec(0, 0)
    if not found:
        raise AssertionError("no 5x5 figure-eight found")
    return found[0]


BUILDERS = {"trefoil4": build_trefoil4, "granny8": build_granny8, "fig8_5": build_fig8_5}


def write_fixture(name, m):
    (DATA / f"{name}.mosaic").write_text(M.encode(m))
    print(f"{name}:", m.cells, jones(to_diagram(m)).pretty("s"))


def main():
    for name, build in BUILDERS.items():
        write_fixture(name, build())


if __name__ == "__main__":
    main()
