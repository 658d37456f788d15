#!/usr/bin/env python3
"""Regenerate src/knotfield/data/moves_default.json.

Base moves are hand-derived planar isotopies and Reidemeister moves; the
full table is their closure under quarter-turn rotation and left-right
reflection, deduplicated.
"""

import itertools
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from knotfield.mosaic import BOUNDARY_FAULT, _edge_faults, _passages, _walk  # noqa: E402
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


def _ends(strand, cols):
    """The two boundary points of an open strand in a block `cols` wide,
    each ("N"|"S", col) or ("W"|"E", row)."""
    (first, entry, _), (last, _, exit_) = strand[0], strand[-1]
    return frozenset((side, c if side in "NS" else r) for (r, c), side in
                     ((divmod(first, cols), entry), (divmod(last, cols), exit_)))


def _class_order(pairing):
    """Sort key for a routing class, given by its boundary-point pairing:
    its sorted boundary points, then its sorted pairs.

    Sorted tuples instead of the frozensets' repr, whose element order
    follows the string hash and so changes with PYTHONHASHSEED.
    """
    return sorted(p for pair in pairing for p in pair), sorted(sorted(pair) for pair in pairing)


def planar_2x2_moves():
    """All 2x2 crossingless planar isotopies, generated by routing class.

    A routing class is the pairing of boundary points that the open strands
    make; patterns with a closed loop never join one, so no move creates or
    deletes a circle component.
    """
    classes = {}
    for cells in itertools.product(range(9), repeat=4):  # crossing tiles 9, 10 excluded
        faults = _edge_faults(2, 2, cells)
        if any(reason != BOUNDARY_FAULT for *_, reason in faults):
            continue
        opened, closed = _walk(2, 2, cells, faults)
        if closed:
            continue
        classes.setdefault(frozenset(_ends(_passages(s), 2) for s in opened), []).append(cells)
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
