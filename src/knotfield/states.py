"""Finite-support state vectors over mosaic basis labels, and diagonal
observables built from orbit partitions.

Basis labels are canonical mosaic encodings (see mosaic.encode), though any
hashable string label works for the linear-algebra layer.  The full
11^(n^2)-dimensional space is never materialized; operators are diagonal
over orbits and materialize orbits lazily.
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass, field

from .errors import ContractViolationError, KnotfieldError
from .mosaic import Mosaic, decode, encode
from .moves import apply as apply_move
from .orbits import DEFAULT_BUDGET, orbit

INNER_TOL = 1e-12


def dim(n: int) -> int:
    """Dimension of the mosaic state space: eleven tiles per cell, n^2 cells."""
    if n < 1:
        raise KnotfieldError(f"lattice size must be positive, got {n}")
    return 11 ** (n * n)


def _clean(amplitudes):
    return {k: complex(v) for k, v in amplitudes.items() if v != 0}


@dataclass(frozen=True)
class StateVector:
    """Immutable finite map from basis label to complex amplitude.

    Zero amplitudes are dropped on construction, so the empty map is the
    canonical zero vector.
    """

    amplitudes: dict

    def __post_init__(self):
        object.__setattr__(self, "amplitudes", _clean(self.amplitudes))

    @staticmethod
    def zero() -> "StateVector":
        return StateVector({})

    @staticmethod
    def basis(label) -> "StateVector":
        if isinstance(label, Mosaic):
            label = encode(label)
        return StateVector({label: 1.0})

    @property
    def support(self):
        return frozenset(self.amplitudes)

    def amplitude(self, label) -> complex:
        if isinstance(label, Mosaic):
            label = encode(label)
        return self.amplitudes.get(label, 0j)

    def __add__(self, other):
        out = dict(self.amplitudes)
        for k, v in other.amplitudes.items():
            out[k] = out.get(k, 0) + v
        return StateVector(out)

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, scalar):
        return StateVector({k: scalar * v for k, v in self.amplitudes.items()})

    def __mul__(self, scalar):
        return self.__rmul__(scalar)

    def norm(self) -> float:
        return math.sqrt(sum(abs(v) ** 2 for v in self.amplitudes.values()))

    def normalized(self) -> "StateVector":
        nn = self.norm()
        if nn == 0:
            raise KnotfieldError("cannot normalize the zero vector")
        return (1.0 / nn) * self

    def __eq__(self, other):
        return isinstance(other, StateVector) and self.amplitudes == other.amplitudes

    def __hash__(self):
        return hash(frozenset(self.amplitudes.items()))

    def to_json(self) -> str:
        items = [{"label": k, "re": v.real, "im": v.imag}
                 for k, v in sorted(self.amplitudes.items())]
        return json.dumps(items)

    @staticmethod
    def from_json(text) -> "StateVector":
        items = json.loads(text) if isinstance(text, str) else text
        out = {}
        for item in items:
            out[item["label"]] = out.get(item["label"], 0) + complex(item["re"], item["im"])
        return StateVector(out)


def inner(a: StateVector, b: StateVector) -> complex:
    """Hermitian inner product, conjugate-linear in the first argument."""
    if len(b.amplitudes) < len(a.amplitudes):
        return inner(b, a).conjugate()
    return sum(v.conjugate() * b.amplitudes[k]
               for k, v in a.amplitudes.items() if k in b.amplitudes)


def act(g, psi: StateVector) -> StateVector:
    """Apply a sequence of move instances to every basis label of psi.

    Each instance is an involution on the basis, so the sequence acts as a
    permutation and the map is unitary.
    """
    g = list(g)
    out = {}
    for label, amp in psi.amplitudes.items():
        m = decode(label)
        for inst in g:
            inst.check_fits(m.n)
            m = apply_move(inst, m)
        key = encode(m)
        out[key] = out.get(key, 0) + amp
    return StateVector(out)


@dataclass
class DiagonalObservable:
    """Real diagonal operator, constant on orbits.

    eigenvalue maps an orbit identifier (the minimal member encoding) to a
    real number; orbit_index maps a basis label to its orbit identifier,
    materializing orbits on demand.  Labels mapped to None take eigenvalue 0.
    """

    eigenvalue: dict
    orbit_index: object  # callable: label -> orbit id or None
    orbit_sizes: dict = field(default_factory=dict)

    def eigenvalue_for(self, label) -> float:
        if isinstance(label, Mosaic):
            label = encode(label)
        oid = self.orbit_index(label)
        if oid is None:
            return 0.0
        return self.eigenvalue[oid]

    def apply(self, psi: StateVector) -> StateVector:
        return StateVector({k: self.eigenvalue_for(k) * v
                            for k, v in psi.amplitudes.items()})

    def expectation(self, psi: StateVector) -> float:
        return sum(abs(v) ** 2 * self.eigenvalue_for(k)
                   for k, v in psi.amplitudes.items())

    def to_json(self) -> str:
        items = [{"orbit_representative": oid,
                  "eigenvalue": self.eigenvalue[oid],
                  "orbit_size": self.orbit_sizes.get(oid)}
                 for oid in sorted(self.eigenvalue)]
        return json.dumps(items)


def chi(K: Mosaic, templates, budget: int = DEFAULT_BUDGET) -> DiagonalObservable:
    """Characteristic projector of the orbit of K: eigenvalue 1 on Orbit(K),
    0 on every other basis label."""
    orb = orbit(K, templates, budget=budget)
    members = orb.members
    oid = min(members)

    def index(label):
        return oid if label in members else None

    return DiagonalObservable({oid: 1.0}, index, {oid: len(members)})


def invariant_observable(inv, n: int, templates, budget: int = DEFAULT_BUDGET,
                         tol: float = 1e-9) -> DiagonalObservable:
    """Diagonal observable with eigenvalue inv(K) on the orbit of K.

    inv must be a real-valued function of mosaics that is constant on
    orbits; constancy is checked on every orbit actually materialized, and
    a violation raises ContractViolationError naming two witnesses.
    Materialized orbits are cached; the cache is guarded by a lock so
    concurrent lookups are safe and order-independent.
    """
    label_to_oid = {}
    eigenvalue = {}
    orbit_sizes = {}
    lock = threading.Lock()

    def materialize(label):
        m = decode(label)
        if m.n != n:
            raise KnotfieldError(f"label has lattice size {m.n}, observable expects {n}")
        orb = orbit(m, templates, budget=budget)
        values = sorted((encode(k), float(inv(k))) for k in orb.member_mosaics())
        oid, ref_val = values[0]
        for k, v in values[1:]:
            if not math.isclose(v, ref_val, rel_tol=tol, abs_tol=tol):
                raise ContractViolationError(
                    "invariant is not constant on an orbit: "
                    f"{oid!r} -> {ref_val} but {k!r} -> {v}")
        return [k for k, _ in values], oid, ref_val

    def index(label):
        with lock:
            if label in label_to_oid:
                return label_to_oid[label]
        members, oid, val = materialize(label)
        with lock:
            if label not in label_to_oid:
                for k in members:
                    label_to_oid[k] = oid
                eigenvalue[oid] = val
                orbit_sizes[oid] = len(members)
        return label_to_oid[label]

    return DiagonalObservable(eigenvalue, index, orbit_sizes)
