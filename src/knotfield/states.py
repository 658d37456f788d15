"""Finite-support state vectors over mosaic basis labels, and diagonal
observables built from orbit partitions.

Basis labels are canonical mosaic encodings.  The linear-algebra layer
takes any hashable label; `act`, `chi` and the invariant observables read
a label with `mosaic.from_label`, which rejects non-canonical text, so one
state has one label.  The full 11^(n^2)-dimensional space is never
materialized; operators are diagonal over orbits, materialize orbits
lazily, and look up a Mosaic or a label by its byte row in the orbits they
hold, named by `Orbit.label`.

An invariant observable's core, `row_observable`, takes a function of an
orbit's member rows (`Orbit.member_rows()`: a (size, n^2) uint8 array in
label order, row 0 being the member `Orbit.label` encodes), so an
invariant can be evaluated on a whole orbit at once.  Constancy is still
checked on every member.  `invariant_observable` keeps the per-mosaic
contract: it is the core with the invariant called on each member in turn.
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass

from .errors import ContractViolationError, KnotfieldError
from .mosaic import Mosaic, encode, from_label
from .moves import apply as apply_move
from .orbits import DEFAULT_BUDGET, orbit

CONSTANCY_TOL = 1e-9  # rel and abs: an invariant's values on one orbit count as equal


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
    canonical zero vector.  A scalar multiplies from the left (`2 * psi`);
    a state vector is not hashable.
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

    def norm(self) -> float:
        return math.sqrt(sum(abs(v) ** 2 for v in self.amplitudes.values()))

    def normalized(self) -> "StateVector":
        nn = self.norm()
        if nn == 0:
            raise KnotfieldError("cannot normalize the zero vector")
        return (1.0 / nn) * self

    def __eq__(self, other):
        return isinstance(other, StateVector) and self.amplitudes == other.amplitudes

    def to_json(self) -> str:
        items = [{"label": k, "re": v.real, "im": v.imag}
                 for k, v in sorted(self.amplitudes.items())]
        return json.dumps(items)

    @staticmethod
    def from_json(text) -> "StateVector":
        out = {}
        for item in json.loads(text):
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
    permutation and the map is unitary; the empty sequence is the identity.
    Labels must be canonical encodings (`mosaic.from_label`).
    """
    g = list(g)
    out = {}
    for label, amp in psi.amplitudes.items():
        m = from_label(label)
        for inst in g:
            m = apply_move(inst, m)
        key = encode(m)
        out[key] = out.get(key, 0) + amp
    return StateVector(out)


@dataclass
class DiagonalObservable:
    """Real diagonal operator, constant on orbits.

    eigenvalue maps an orbit identifier (`Orbit.label`, the member encoding
    that sorts first) to a real number; orbit_index maps a basis label or a
    Mosaic to its orbit identifier, materializing orbits on demand.  Labels
    mapped to None take eigenvalue 0.
    """

    eigenvalue: dict
    orbit_index: object  # callable: label or Mosaic -> orbit id or None
    orbit_sizes: dict  # orbit id -> member count, for every key of eigenvalue

    def eigenvalue_for(self, label) -> float:
        oid = self.orbit_index(label)
        return 0.0 if oid is None else self.eigenvalue[oid]

    def apply(self, psi: StateVector) -> StateVector:
        return StateVector({k: self.eigenvalue_for(k) * v
                            for k, v in psi.amplitudes.items()})

    def expectation(self, psi: StateVector) -> float:
        return sum(abs(v) ** 2 * self.eigenvalue_for(k)
                   for k, v in psi.amplitudes.items())

    def to_json(self) -> str:
        items = [{"orbit_representative": oid,
                  "eigenvalue": self.eigenvalue[oid],
                  "orbit_size": self.orbit_sizes[oid]}
                 for oid in sorted(self.eigenvalue)]
        return json.dumps(items)


def chi(K: Mosaic, templates, budget: int = DEFAULT_BUDGET) -> DiagonalObservable:
    """Characteristic projector of the orbit of K: eigenvalue 1 on Orbit(K),
    0 on every other basis label."""
    orb = orbit(K, templates, budget=budget)

    def index(label):
        m = label if isinstance(label, Mosaic) else from_label(label)
        return orb.label if m in orb else None

    return DiagonalObservable({orb.label: 1.0}, index, {orb.label: orb.size})


def invariant_observable(inv, n: int, templates,
                         budget: int = DEFAULT_BUDGET) -> DiagonalObservable:
    """Diagonal observable with eigenvalue inv(K) on the orbit of K: a
    real-valued function of mosaics, called on every member of each orbit
    materialized, in label order (`row_observable`)."""
    return row_observable(lambda rows: (inv(Mosaic(n, tuple(r))) for r in rows.tolist()),
                          n, templates, budget)


def row_observable(values, n: int, templates,
                   budget: int = DEFAULT_BUDGET) -> DiagonalObservable:
    """Diagonal observable with eigenvalue values(rows)[0] on each orbit,
    where rows is `Orbit.member_rows()`: the members' byte rows in label
    order, row 0 being the member `Orbit.label` encodes.

    values must give one real number per row, read in order, and be
    constant on orbits, to CONSTANCY_TOL; constancy is checked on every
    member of every orbit actually materialized, and a violation raises
    ContractViolationError naming two witnesses: the label and the first
    member off its value.  Text labels must be canonical encodings
    (`mosaic.from_label`).  Materialized orbits are cached; the cache is
    guarded by a lock so concurrent lookups are safe and order-independent.
    """
    closed = []  # materialized orbits, each named by its Orbit.label
    eigenvalue = {}
    orbit_sizes = {}
    lock = threading.Lock()

    def index(label):
        m = label if isinstance(label, Mosaic) else from_label(label)
        if m.n != n:
            raise KnotfieldError(f"label has lattice size {m.n}, observable expects {n}")
        with lock:
            for orb in closed:
                if m in orb:
                    return orb.label
        orb = orbit(m, templates, budget=budget)
        rows = orb.member_rows()
        each = iter(values(rows))
        val = float(next(each))
        for i, v in enumerate(each, 1):
            v = float(v)
            if not math.isclose(v, val, rel_tol=CONSTANCY_TOL, abs_tol=CONSTANCY_TOL):
                witness = encode(Mosaic(n, tuple(rows[i].tolist())))
                raise ContractViolationError(
                    "invariant is not constant on an orbit: "
                    f"{orb.label!r} -> {val} but {witness!r} -> {v}")
        with lock:
            if orb.label not in eigenvalue:  # no other lookup closed it meanwhile
                closed.append(orb)
                eigenvalue[orb.label] = val
                orbit_sizes[orb.label] = orb.size
        return orb.label

    return DiagonalObservable(eigenvalue, index, orbit_sizes)
