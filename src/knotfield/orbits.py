"""Orbit closure of mosaics under the ambient group's move templates.

Breadth-first closure over the finite basis of an n x n lattice, expanding
each whole BFS level with one `kernels.expand_level` call.  The member set is
independent of exploration order; witnesses are reconstructed from parent
pointers laid down in deterministic BFS order: by level, then by source
state, then by move instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import kernels
from .errors import BudgetExceededError, KnotfieldError
from .mosaic import Mosaic, encode, validate
from .moves import apply as apply_move
from .moves import instances_for

DEFAULT_BUDGET = 10 ** 6


def compile_instances(templates, n):
    """Pack every placement of every template into flat arrays for the kernel.

    Returns (instances, pos, pat_a, pat_b, lens).  Results are cached per
    (table, n) and shared between callers, so the arrays are read-only.
    """
    return _compile_instances(tuple(templates), n)


@lru_cache(maxsize=16)
def _compile_instances(templates, n):
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
    return insts, pos, pat_a, pat_b, lens


@dataclass(frozen=True)
class Orbit:
    representative: Mosaic
    members: frozenset  # canonical encode() text of every member
    _parents: dict = field(default_factory=dict, repr=False, compare=False)
    _instances: tuple = field(default=(), repr=False, compare=False)

    @property
    def size(self):
        return len(self.members)

    def __contains__(self, m):
        key = m if isinstance(m, str) else encode(m)
        return key in self.members

    def member_mosaics(self):
        n = self.representative.n
        for key in sorted(self.members):
            yield Mosaic(n, _cells_from_key(key))

    def witness_for(self, m):
        """Move sequence replaying representative -> m, as MoveInstances."""
        key = m if isinstance(m, str) else encode(m)
        if key not in self.members:
            raise KnotfieldError("mosaic is not in this orbit")
        n = self.representative.n
        state = bytes(_cells_from_key(key))
        edges = []
        while True:
            parent = self._parents[state]
            if parent is None:
                break
            edges.append((parent, state))
            state = parent
        edges.reverse()
        seq = []
        for parent, child in edges:
            seq.append(_find_instance(parent, child, self._instances, n))
        return seq


def _cells_from_key(key):
    rows = key.splitlines()[1:]
    return tuple(int(v) for row in rows for v in row.split())


def _find_instance(parent, child, instances, n):
    src = Mosaic(n, tuple(parent))
    for inst in instances:
        if bytes(apply_move(inst, src).cells) == child:
            return inst
    raise KnotfieldError("internal error: no instance maps parent to child")


def orbit(m: Mosaic, templates, budget: int = DEFAULT_BUDGET) -> Orbit:
    """Breadth-first closure of {m} under all placements of all templates."""
    rep = validate(m)
    if not rep.valid:
        raise KnotfieldError("orbit closure requires a suitably-connected mosaic")
    n = m.n
    insts, pos, pat_a, pat_b, lens = compile_instances(templates, n)
    start = bytes(m.cells)
    parents = {start: None}
    frontier = [start]
    while frontier:
        next_frontier = []
        for i, nb in kernels.expand_level(frontier, pos, pat_a, pat_b, lens):
            if nb not in parents:
                parents[nb] = frontier[i]
                next_frontier.append(nb)
                if len(parents) > budget:
                    raise BudgetExceededError(budget, len(parents))
        frontier = next_frontier
    members = frozenset(encode(Mosaic(n, tuple(s))) for s in parents)
    return Orbit(m, members, parents, insts)


def same_orbit(a: Mosaic, b: Mosaic, templates, budget: int = DEFAULT_BUDGET):
    """Decide orbit equivalence; on success also return a witness sequence."""
    if a.n != b.n:
        raise KnotfieldError("mosaics live in different lattice sizes")
    orb = orbit(a, templates, budget=budget)
    if b in orb:
        return True, orb.witness_for(b)
    return False, None
