"""Local tile-rewrite moves generating the ambient group.

A move template is an unordered pair of sub-mosaic patterns with identical
boundary connection signatures, so swapping one for the other inside any
suitably-connected mosaic preserves suitably-connectedness.  The default
table (data/moves_default.json) carries planar-isotopy moves plus mosaic
Reidemeister moves R1, R2, R3; tables are data and are re-validated on load.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from importlib import resources

from .errors import MoveTableError, KnotfieldError
from .mosaic import BOUNDARY_FAULT, Mosaic, NUM_TILES, _edge_faults

_ENTRY_KEYS = ("name", "rows", "cols", "pattern_a", "pattern_b")

# The member budget of an orbit closure under these moves (`orbits.orbit`,
# the CLI's --budget); `orbits` re-exports it.
DEFAULT_BUDGET = 10 ** 6


@dataclass(frozen=True)
class MoveTemplate:
    name: str
    rows: int
    cols: int
    pattern_a: tuple
    pattern_b: tuple

    def __post_init__(self):
        if not (1 <= self.rows <= 3 and 1 <= self.cols <= 3):
            raise MoveTableError(f"{self.name}: pattern shape must be within 3x3")
        size = self.rows * self.cols
        signatures = []
        for label, pat in (("pattern_a", self.pattern_a), ("pattern_b", self.pattern_b)):
            if len(pat) != size:
                raise MoveTableError(f"{self.name}: {label} has {len(pat)} cells, expected {size}")
            if any(type(t) is not int or not 0 <= t < NUM_TILES for t in pat):  # not bool
                raise MoveTableError(f"{self.name}: {label} contains a bad tile id")
            faults = _edge_faults(self.rows, self.cols, pat)
            if any(reason != BOUNDARY_FAULT for *_, reason in faults):
                raise MoveTableError(f"{self.name}: {label} has mismatched interior edges")
            # The pattern's boundary connection points, as the edges they sit on.
            signatures.append(frozenset(fault[:3] for fault in faults))
        if self.pattern_a == self.pattern_b:
            raise MoveTableError(f"{self.name}: patterns are identical")
        if signatures[0] != signatures[1]:
            raise MoveTableError(f"{self.name}: boundary signatures differ")
        # The hash dataclass would compute, taken once: the move-table cache
        # hashes a tuple of every template on each orbit closure.
        object.__setattr__(self, "_hash", hash(
            (self.name, self.rows, self.cols, self.pattern_a, self.pattern_b)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # Rebuilt through __init__, so an unpickled template takes the hash
        # of its own process (str hashes differ from process to process).
        return type(self), (self.name, self.rows, self.cols, self.pattern_a, self.pattern_b)


@dataclass(frozen=True)
class MoveInstance:
    template: MoveTemplate
    anchor: tuple  # (row, col) of the pattern's top-left cell

    def check_fits(self, n):
        r, c = self.anchor
        if not (0 <= r and 0 <= c and r + self.template.rows <= n
                and c + self.template.cols <= n):
            raise KnotfieldError(
                f"move {self.template.name} at {self.anchor} does not fit an {n}x{n} lattice")


def apply(instance: MoveInstance, m: Mosaic) -> Mosaic:
    """Swap pattern_a <-> pattern_b at the anchor; no-op if neither matches."""
    t = instance.template
    instance.check_fits(m.n)
    r0, c0 = instance.anchor
    block = tuple(m.tile(r0 + r, c0 + c) for r in range(t.rows) for c in range(t.cols))
    if block == t.pattern_a:
        target = t.pattern_b
    elif block == t.pattern_b:
        target = t.pattern_a
    else:
        return m
    updates = {(r0 + r, c0 + c): target[r * t.cols + c]
               for r in range(t.rows) for c in range(t.cols)}
    return m.with_cells(updates)


def instances_for(templates, n):
    """Every placement of every template inside an n x n lattice, in a fixed order."""
    out = []
    for t in templates:
        for r in range(n - t.rows + 1):
            for c in range(n - t.cols + 1):
                out.append(MoveInstance(t, (r, c)))
    return out


# ---------------------------------------------------------------------------
# Table files


def templates_to_json(templates):
    return json.dumps(
        [{"name": t.name, "rows": t.rows, "cols": t.cols,
          "pattern_a": list(t.pattern_a), "pattern_b": list(t.pattern_b)}
         for t in templates], indent=1)


def templates_from_json(text):
    obj = json.loads(text)
    if not isinstance(obj, list):
        raise MoveTableError("move table must be a JSON list")
    templates = []
    names = set()
    for i, entry in enumerate(obj):
        if not isinstance(entry, dict):
            raise MoveTableError(f"move table entry {i} is not an object")
        missing = [key for key in _ENTRY_KEYS if key not in entry]
        if missing:
            raise MoveTableError(f"move table entry {i} lacks {', '.join(missing)}")
        if not isinstance(entry["name"], str):
            raise MoveTableError(f"move table entry {i}: name {entry['name']!r} is not a string")
        for key in ("rows", "cols"):
            if type(entry[key]) is not int:  # not bool, not float
                raise MoveTableError(f"move table entry {i}: invalid literal {entry[key]!r} "
                                     f"for {key}, expected an integer")
        try:
            t = MoveTemplate(entry["name"], entry["rows"], entry["cols"],
                             tuple(entry["pattern_a"]), tuple(entry["pattern_b"]))
        except (MoveTableError, TypeError) as exc:
            raise MoveTableError(f"move table entry {i}: {exc}") from None
        if t.name in names:
            raise MoveTableError(f"move table entry {i}: duplicate move name {t.name}")
        names.add(t.name)
        templates.append(t)
    return tuple(templates)


@functools.cache
def default_table():
    """The bundled move table (planar isotopy + R1/R2/R3), loaded once; a
    tuple, so no caller can change the table the next one gets."""
    text = resources.files("knotfield.data").joinpath("moves_default.json").read_text()
    return templates_from_json(text)
