"""Orbit closure of mosaics under the ambient group's move templates.

Breadth-first closure over the finite basis of an n x n lattice.  Each BFS
level is expanded by `kernels.expand_chunks`, and the closure walks one
chunk's source and neighbor lists side by side before it asks for the next,
so the member budget stops it inside the chunk that finds member budget + 1
and no level's neighbors exist whole.  The move table is packed, and its
kernel window tables built, once per (table, n) in one cache here; an
`Orbit` holds the instances and tables as a value, and the kernel keeps no
state.  Members live only as byte rows (one byte per cell) in the BFS
parent map; `Orbit.label` encodes only the member whose text
sorts first (taken from row 0 of `member_rows()` when that has been read),
and `Orbit.members` builds every member's text on first read.  Witnesses
follow parent pointers laid down in deterministic BFS order (by level,
source state, move instance); each step re-expands only its parent, as the
one chunk `kernels.expand_chunks` yields for it, and takes the instance at
the first position of the child in that chunk's neighbor list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from . import kernels
from .errors import BudgetExceededError, KnotfieldError
from .mosaic import Mosaic, encode, from_label, label_key, validate
from .moves import DEFAULT_BUDGET, instances_for


def compile_instances(templates, n):
    """Pack every placement of every template into flat arrays for the kernel.

    Returns (instances, pos, pat_a, pat_b, lens).  Results are cached per
    (table, n) and shared between callers, so the arrays are read-only.
    """
    return _compile_instances(tuple(templates), n)[:5]


@lru_cache(maxsize=16)
def _compile_instances(templates, n):
    """compile_instances' five objects, then their `kernels.window_tables`."""
    insts = tuple(instances_for(templates, n))
    max_len = max((t.rows * t.cols for t in templates), default=1)
    num = len(insts)
    pos = np.zeros((num, max_len), dtype=np.int32)
    pat_a = np.zeros((num, max_len), dtype=np.uint8)
    pat_b = np.zeros((num, max_len), dtype=np.uint8)
    lens = np.zeros(num, dtype=np.int32)
    for i, inst in enumerate(insts):
        t = inst.template
        r0, c0 = inst.anchor
        k = t.rows * t.cols
        lens[i] = k
        for j in range(k):
            r, c = divmod(j, t.cols)
            pos[i, j] = (r0 + r) * n + (c0 + c)
            pat_a[i, j] = t.pattern_a[j]
            pat_b[i, j] = t.pattern_b[j]
    for arr in (pos, pat_a, pat_b, lens):
        arr.setflags(write=False)
    return insts, pos, pat_a, pat_b, lens, kernels.window_tables(pos, pat_a, pat_b, lens)


@dataclass(frozen=True, eq=False)
class Orbit:
    """`_parents` maps each member's byte row to its BFS parent's row (None
    for the representative), in insertion order; `_packed` is the
    (instances, window tables) pair it was closed with.  Compared by
    identity."""

    representative: Mosaic
    _parents: dict = field(repr=False)
    _packed: tuple = field(repr=False)

    @cached_property
    def label(self):
        """encode() text of the member whose text sorts first: the orbit's
        name, not to be confused with `representative`, the start mosaic."""
        n = self.representative.n
        return encode(Mosaic(n, tuple(min(self._parents, key=label_key))))

    @cached_property
    def members(self):
        """Canonical encode() text of every member, built on first use."""
        return frozenset(map(encode, self.member_mosaics()))

    @property
    def size(self):
        return len(self._parents)

    def __contains__(self, m):
        if isinstance(m, str):
            try:
                m = from_label(m)
            except KnotfieldError:
                return False
        try:
            return bytes(m.cells) in self._parents
        except (TypeError, ValueError):  # cells that fit no byte row
            return False

    def member_rows(self):
        """Every member's byte row, as one read-only (size, n^2) uint8
        array in label order: row 0 is the member `label` encodes, and
        `label` is cached from it, so no member's key is built twice."""
        rows = sorted(self._parents, key=label_key)
        if "label" not in self.__dict__:
            self.__dict__["label"] = encode(Mosaic(self.representative.n, tuple(rows[0])))
        return np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(len(rows), -1)

    def member_mosaics(self):
        """Every member as a Mosaic, in BFS order."""
        n = self.representative.n
        return (Mosaic(n, tuple(s)) for s in self._parents)

    def witness_for(self, m):
        """Move sequence replaying representative -> m, as MoveInstances."""
        if isinstance(m, str):
            m = from_label(m)
        if m not in self:
            raise KnotfieldError("mosaic is not in this orbit")
        insts, tables = self._packed
        state = bytes(m.cells)
        seq = []
        while (parent := self._parents[state]) is not None:
            # BFS kept the first (source, instance) pair reaching each state.
            # One parent is one chunk, and a parent has at least one child.
            [(_, _, inst, neighbors)] = kernels.expand_chunks([parent], tables)
            seq.append(insts[inst[neighbors.index(state)]])
            state = parent
        return seq[::-1]


def orbit(m: Mosaic, templates, budget: int = DEFAULT_BUDGET) -> Orbit:
    """Breadth-first closure of {m} under all placements of all templates."""
    if budget < 1:
        raise KnotfieldError(f"orbit budget must be at least 1, got {budget}")
    if not validate(m).valid:
        raise KnotfieldError("orbit closure requires a suitably-connected mosaic")
    insts, *_, tables = _compile_instances(tuple(templates), m.n)
    start = bytes(m.cells)
    parents = {start: None}
    frontier = [start]
    while frontier:
        next_frontier = []
        # Each chunk's lists are consumed before the next chunk is expanded,
        # so the budget stops the closure inside the chunk that crosses it.
        for block, rows, _, neighbors in kernels.expand_chunks(frontier, tables):
            for i, nb in zip(rows.tolist(), neighbors):
                if nb not in parents:
                    parents[nb] = block[i]
                    next_frontier.append(nb)
                    if len(parents) > budget:
                        raise BudgetExceededError(budget, len(parents))
        frontier = next_frontier
    return Orbit(m, parents, (insts, tables))


def same_orbit(a: Mosaic, b: Mosaic, templates, budget: int = DEFAULT_BUDGET):
    """Decide orbit equivalence; on success also return a witness sequence."""
    if a.n != b.n:
        raise KnotfieldError("mosaics live in different lattice sizes")
    if not validate(b).valid:
        raise KnotfieldError("orbit comparison requires a suitably-connected mosaic")
    orb = orbit(a, templates, budget=budget)
    if b in orb:
        return True, orb.witness_for(b)
    return False, None
