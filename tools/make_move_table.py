#!/usr/bin/env python3
"""Regenerate src/knotfield/data/moves_default.json.

Base moves are hand-derived planar isotopies and Reidemeister moves; the
full table is their closure under quarter-turn rotation and left-right
reflection, deduplicated.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from knotfield.moves import MoveTemplate, templates_to_json  # noqa: E402

OUT = pathlib.Path(__file__).resolve().parents[1] / "src/knotfield/data/moves_default.json"

# tile maps under cw quarter turn and left-right reflection
ROT90 = {0: 0, 1: 4, 2: 1, 3: 2, 4: 3, 5: 6, 6: 5, 7: 8, 8: 7, 9: 10, 10: 9}
FLIP = {0: 0, 1: 2, 2: 1, 3: 4, 4: 3, 5: 5, 6: 6, 7: 8, 8: 7, 9: 9, 10: 10}


def rot(rows, cols, cells):
    out = [0] * (rows * cols)
    for r in range(rows):
        for c in range(cols):
            out[c * rows + (rows - 1 - r)] = ROT90[cells[r * cols + c]]
    return cols, rows, tuple(out)


def flip(rows, cols, cells):
    out = [0] * (rows * cols)
    for r in range(rows):
        for c in range(cols):
            out[r * cols + (cols - 1 - c)] = FLIP[cells[r * cols + c]]
    return rows, cols, tuple(out)


BASE = [
    # Reidemeister I (kink with either crossing sense)
    ("r1a", 2, 2, (0, 0, 1, 0), (2, 1, 9, 4)),
    ("r1b", 2, 2, (0, 0, 1, 0), (2, 1, 10, 4)),
    # Reidemeister II (cap pushed across a strand, over or under)
    ("r2a", 3, 3, (1, 6, 0, 6, 6, 0, 4, 6, 0), (5, 9, 1, 0, 6, 6, 5, 9, 4)),
    ("r2b", 3, 3, (1, 6, 0, 6, 6, 0, 4, 6, 0), (5, 10, 1, 0, 6, 6, 5, 10, 4)),
    # Reidemeister III (strand slides past a crossing; 4 over/under variants)
    ("r3a", 3, 3, (0, 6, 6, 5, 9, 9, 5, 10, 4), (2, 10, 4, 9, 9, 5, 4, 6, 0)),
    ("r3b", 3, 3, (0, 6, 6, 5, 10, 9, 5, 10, 4), (2, 10, 4, 9, 10, 5, 4, 6, 0)),
    ("r3c", 3, 3, (0, 6, 6, 5, 9, 10, 5, 9, 4), (2, 9, 4, 10, 9, 5, 4, 6, 0)),
    ("r3d", 3, 3, (0, 6, 6, 5, 10, 10, 5, 9, 4), (2, 9, 4, 10, 10, 5, 4, 6, 0)),
]


def _block_routing(rows, cols, cells):
    """Boundary pairing and loop count of a crossingless pattern, or None.

    Returns (frozenset of frozenset boundary-point pairs, n_loops).  Boundary
    points are ("N"|"S", col) / ("W"|"E", row).
    """
    from knotfield.mosaic import TILE_PAIRS, OPPOSITE, tile_partner

    def boundary_point(r, c, side):
        if side == "N" and r == 0:
            return ("N", c)
        if side == "S" and r == rows - 1:
            return ("S", c)
        if side == "W" and c == 0:
            return ("W", r)
        if side == "E" and c == cols - 1:
            return ("E", r)
        return None

    def walk(r, c, side):
        """Follow the strand from endpoint (r, c, side); return exit boundary point or None (loop)."""
        while True:
            used.add((r, c, side))
            out = tile_partner(cells[r * cols + c], side)
            used.add((r, c, out))
            bp = boundary_point(r, c, out)
            if bp is not None:
                return bp
            if out == "N":
                r -= 1
            elif out == "S":
                r += 1
            elif out == "E":
                c += 1
            else:
                c -= 1
            side = OPPOSITE[out]
            if (r, c, side) in used:
                return None

    used = set()
    pairs = set()
    loops = 0
    endpoints = [(r, c, side)
                 for r in range(rows) for c in range(cols)
                 for pair in TILE_PAIRS[cells[r * cols + c]] for side in pair]
    # open strands first (walk from boundary endpoints), then closed loops
    for r, c, side in endpoints:
        bp = boundary_point(r, c, side)
        if bp is None or (r, c, side) in used:
            continue
        other = walk(r, c, side)
        pairs.add(frozenset({bp, other}))
    for r, c, side in endpoints:
        if (r, c, side) not in used:
            walk(r, c, side)
            loops += 1
    return frozenset(pairs), loops


def _class_order(key):
    """Sort key for a (signature, pairing) routing class.

    Sorted tuples instead of the frozensets' repr, whose element order
    follows the string hash and so changes with PYTHONHASHSEED.
    """
    sig, pairing = key
    return sorted(sig), sorted(sorted(pair) for pair in pairing)


def planar_2x2_moves():
    """All 2x2 crossingless planar isotopies, generated by routing class."""
    from knotfield.mosaic import TILE_SIDES
    from knotfield.moves import _pattern_boundary_signature, _pattern_consistent

    classes = {}
    arcs = [t for t in range(9)]  # crossing tiles 9, 10 excluded
    for a in arcs:
        for b in arcs:
            for c in arcs:
                for d in arcs:
                    cells = (a, b, c, d)
                    if not _pattern_consistent(2, 2, cells):
                        continue
                    pairing, loops = _block_routing(2, 2, cells)
                    if loops:
                        continue  # never create or delete a circle component
                    sig = _pattern_boundary_signature(2, 2, cells)
                    classes.setdefault((sig, pairing), []).append(cells)
    moves = []
    idx = 0
    for key in sorted(classes, key=_class_order):
        members = sorted(classes[key])
        rep = members[0]
        for other in members[1:]:
            moves.append((f"planar{idx}", 2, 2, rep, other))
            idx += 1
    return moves


def build_table():
    """The full move table, in the order it is written to the JSON file."""
    templates = []
    seen = set()
    for name, rows, cols, a, b in BASE:
        variants = []
        ra, rb = (rows, cols, tuple(a)), (rows, cols, tuple(b))
        for refl in (False, True):
            xa, xb = ra, rb
            if refl:
                xa, xb = flip(*xa), flip(*xb)
            for quarter in range(4):
                if quarter:
                    xa, xb = rot(*xa), rot(*xb)
                suffix = ("m" if refl else "") + (f"r{quarter * 90}" if quarter else "")
                variants.append((name + ("_" + suffix if suffix else ""), xa, xb))
        for vname, (vr, vc, va), (_, _, vb) in variants:
            key = (vr, vc, frozenset({va, vb}))
            if key in seen:
                continue
            seen.add(key)
            templates.append(MoveTemplate(vname, vr, vc, va, vb))
    for name, rows, cols, a, b in planar_2x2_moves():
        key = (rows, cols, frozenset({a, b}))
        if key in seen:
            continue
        seen.add(key)
        templates.append(MoveTemplate(name, rows, cols, a, b))
    return templates


def table_text(templates):
    return templates_to_json(templates) + "\n"


def main():
    templates = build_table()
    OUT.write_text(table_text(templates))
    print(f"wrote {len(templates)} templates to {OUT}")


if __name__ == "__main__":
    main()
