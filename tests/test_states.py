"""State vectors, unitary move action, and diagonal orbit observables."""

import cmath
import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import TREFOIL_JONES

from knotfield.errors import ContractViolationError, KnotfieldError
from knotfield.diagram import evaluate_jones, jones, to_diagram
from knotfield.mosaic import Mosaic, encode, enumerate_mosaics, random_mosaic, trace_components
from knotfield.moves import default_table, instances_for, apply
from knotfield.states import (
    StateVector,
    act,
    chi,
    dim,
    inner,
    invariant_observable,
    row_observable,
)
from knotfield.rows import row_diagrams, strand_counts, trace_rows

TABLE = default_table()
CIRCLE4 = Mosaic(4, (2, 1, 0, 0, 3, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0))


def test_dim_values():
    assert dim(1) == 11
    assert dim(2) == 14641
    assert dim(3) == 2357947691
    with pytest.raises(KnotfieldError):
        dim(0)


def test_vector_space_axioms(trefoil):
    a = StateVector.basis(trefoil)
    b = StateVector.basis(CIRCLE4)
    v = 0.6 * a + 0.8j * b
    assert v.amplitude(trefoil) == 0.6
    assert v.amplitude(CIRCLE4) == 0.8j
    assert (v - v) == StateVector.zero()
    assert v.norm() == pytest.approx(1.0)
    assert inner(a, b) == 0
    assert inner(v, v) == pytest.approx(1.0)
    # conjugate linearity in the first slot
    assert inner(1j * a, a) == pytest.approx(-1j)


def test_inner_with_the_shorter_vector_second(trefoil):
    # the sum runs over the shorter vector, so inner(a, b) is conj(inner(b, a))
    a = StateVector({encode(trefoil): 0.6, encode(CIRCLE4): 0.8j})
    b = StateVector({encode(CIRCLE4): 2 - 1j})
    assert inner(a, b) == -0.8 - 1.6j
    assert inner(b, a) == -0.8 + 1.6j


def test_zero_amplitudes_dropped(trefoil):
    v = StateVector({encode(trefoil): 0.0})
    assert v == StateVector.zero()
    with pytest.raises(KnotfieldError):
        StateVector.zero().normalized()


def test_scalars_multiply_from_the_left_and_states_are_unhashable(trefoil):
    v = StateVector.basis(trefoil)
    assert (2 * v).amplitude(trefoil) == 2
    with pytest.raises(TypeError):
        v * 2
    with pytest.raises(TypeError):
        hash(v)


def test_state_json_roundtrip(trefoil):
    v = 0.6 * StateVector.basis(trefoil) + 0.8j * StateVector.basis(CIRCLE4)
    assert StateVector.from_json(v.to_json()) == v


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_act_is_unitary(seed):
    rng = random.Random(seed)
    m1, m2 = random_mosaic(4, rng), random_mosaic(4, rng)
    amp = cmath.exp(1j * rng.uniform(0, 2 * cmath.pi))
    psi = amp * StateVector.basis(m1) + 0.5 * StateVector.basis(m2)
    g = rng.sample(instances_for(TABLE, 4), 5)
    out = act(g, psi)
    assert out.norm() == pytest.approx(psi.norm(), abs=1e-12)
    # applying the sequence reversed undoes it (each move is an involution)
    assert act(reversed(g), out) == psi


def test_act_applies_moves(trefoil):
    inst = next(i for i in instances_for(TABLE, 4)
                if apply(i, trefoil) != trefoil)
    out = act([inst], StateVector.basis(trefoil))
    assert out == StateVector.basis(apply(inst, trefoil))


def test_chi_projector(trefoil):
    proj = chi(trefoil, TABLE)
    t = StateVector.basis(trefoil)
    u = StateVector.basis(CIRCLE4)
    assert proj.apply(t) == t
    assert proj.apply(u) == StateVector.zero()
    assert proj.apply(proj.apply(t)) == proj.apply(t)  # idempotent
    psi = 0.6 * t + 0.8 * u
    assert proj.expectation(psi) == pytest.approx(0.36)


def test_chi_constant_on_whole_orbit(trefoil):
    proj = chi(trefoil, TABLE)
    (oid,) = proj.eigenvalue
    assert proj.orbit_sizes[oid] == 2
    for inst in instances_for(TABLE, 4):
        moved = apply(inst, trefoil)
        assert proj.eigenvalue_for(moved) == 1.0


def test_chi_text_lookup_encodes_once(monkeypatch):
    # A text label is decoded and looked up by its byte row; the orbit's
    # 1,348 members are never encoded.
    import knotfield.mosaic
    proj = chi(CIRCLE4, TABLE)
    label = encode(CIRCLE4)
    real, calls = knotfield.mosaic.encode, []

    def counted(m):
        calls.append(m)
        return real(m)

    for name, mod in list(sys.modules.items()):
        if name == "knotfield" or name.startswith("knotfield."):
            for attr, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(mod, attr, counted)
    assert proj.eigenvalue_for(label) == 1.0
    assert len(calls) <= 1
    assert proj.orbit_sizes[proj.orbit_index(label)] == 1348


@pytest.mark.parametrize("mangle", [
    lambda t: t[:-1],
    lambda t: t + "\n",
    lambda t: t.replace("\n", " \n"),
    lambda t: "0" + t,
])
def test_act_and_chi_reject_non_canonical_labels(trefoil, mangle):
    # One state has one label: the empty sequence is the identity on
    # canonical labels, and any other text names no state.
    basis = StateVector.basis(trefoil)
    assert act([], basis) == basis
    text = mangle(encode(trefoil))
    with pytest.raises(KnotfieldError, match="is not a canonical mosaic encoding"):
        act([], StateVector({text: 1.0}))
    with pytest.raises(KnotfieldError, match="is not a canonical mosaic encoding"):
        chi(trefoil, TABLE).eigenvalue_for(text)


def _v_minus1(m):
    return evaluate_jones(jones(to_diagram(m)), -1.0)


def test_invariant_observable_eigenvalues(trefoil):
    obs = invariant_observable(_v_minus1, 4, TABLE)
    assert obs.eigenvalue_for(CIRCLE4) == pytest.approx(1.0)
    assert obs.eigenvalue_for(trefoil) == pytest.approx(-3.0)
    assert abs(obs.eigenvalue_for(trefoil)) == pytest.approx(3.0)  # determinant


def _no_closure(*_args, **_kwargs):
    raise AssertionError("orbit closed")


def test_invariant_observable_reuses_closed_orbits(trefoil, monkeypatch):
    obs = invariant_observable(_v_minus1, 4, TABLE)
    assert obs.eigenvalue_for(trefoil) == pytest.approx(-3.0)
    monkeypatch.setattr("knotfield.states.orbit", _no_closure)
    for inst in instances_for(TABLE, 4):
        moved = apply(inst, trefoil)
        if moved != trefoil:
            assert obs.eigenvalue_for(encode(moved)) == pytest.approx(-3.0)
            assert obs.eigenvalue_for(moved) == pytest.approx(-3.0)
    assert list(obs.orbit_sizes.values()) == [2]


@pytest.mark.parametrize("mangle", [
    lambda t: t.replace("\n", " \n"),
    lambda t: t.replace("\n", "\r\n"),
    lambda t: "0" + t,
])
def test_invariant_observable_rejects_noncanonical_label(trefoil, monkeypatch, mangle):
    label = mangle(encode(trefoil))
    obs = invariant_observable(_v_minus1, 4, TABLE)
    monkeypatch.setattr("knotfield.states.orbit", _no_closure)
    with pytest.raises(KnotfieldError, match="not a canonical") as exc:
        obs.eigenvalue_for(label)
    assert repr(label) in str(exc.value)


def test_invariant_observable_concurrent_lookups(trefoil):
    # More threads than cores, switching often: every lookup gets its orbit's
    # value and each orbit is recorded once.
    obs = invariant_observable(_v_minus1, 4, TABLE)
    labels = [trefoil, encode(trefoil), CIRCLE4, encode(CIRCLE4)]
    results, errors = [], []

    def work(k):
        try:
            for label in labels[k % 4:] + labels[:k % 4]:
                results.append((encode(label) if isinstance(label, Mosaic) else label,
                                obs.eigenvalue_for(label)))
        except Exception as exc:  # checked on the main thread below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not errors
    assert len(results) == 16
    assert {round(v, 9) for k, v in results if k == encode(trefoil)} == {-3.0}
    assert {round(v, 9) for k, v in results if k == encode(CIRCLE4)} == {1.0}
    assert sorted(obs.orbit_sizes.values()) == [2, 1348]


def test_invariant_observable_expectation(trefoil):
    obs = invariant_observable(_v_minus1, 4, TABLE)
    psi = (0.6 * StateVector.basis(trefoil) + 0.8 * StateVector.basis(CIRCLE4))
    assert obs.expectation(psi) == pytest.approx(0.36 * -3.0 + 0.64 * 1.0)


def test_non_invariant_rejected(trefoil):
    # Counting crossing tiles is not constant on orbits; the observable
    # must refuse it with two concrete witnesses.
    def fake_inv(m):
        return float(sum(1 for t in m.cells if t >= 9))

    obs = invariant_observable(fake_inv, 4, TABLE)
    with pytest.raises(ContractViolationError):
        obs.eigenvalue_for(CIRCLE4)


def test_wrong_lattice_size_rejected(trefoil):
    obs = invariant_observable(_v_minus1, 3, TABLE)
    with pytest.raises(KnotfieldError):
        obs.eigenvalue_for(trefoil)


def _crossing_tiles(m):
    return float(sum(1 for t in m.cells if t >= 9))


def test_non_invariant_rows_rejected_as_per_mosaic():
    # The row core names the same two members as the per-mosaic adapter.
    errors = []
    for obs in (invariant_observable(_crossing_tiles, 4, TABLE),
                row_observable(lambda rows: (rows >= 9).sum(axis=1), 4, TABLE)):
        with pytest.raises(ContractViolationError) as exc:
            obs.eigenvalue_for(CIRCLE4)
        errors.append(str(exc.value))
    assert errors[0] == errors[1]
    label = chi(CIRCLE4, TABLE).orbit_index(CIRCLE4)
    assert errors[0].startswith(f"invariant is not constant on an orbit: {label!r} -> 0.0 but ")


def test_row_observable_reads_label_order():
    seen = []

    def values(rows):
        seen.append(rows)
        return np.zeros(len(rows))

    obs = row_observable(values, 4, TABLE)
    assert obs.eigenvalue_for(CIRCLE4) == 0.0
    (rows,) = seen
    assert encode(Mosaic(4, tuple(rows[0].tolist()))) == obs.orbit_index(CIRCLE4)
    assert len(rows) == 1348


def _components(rows):
    row, strand, *_ = trace_rows(rows, 4)
    return strand_counts(row, strand, len(rows))


def _v_minus1_rows(rows):
    diagrams, index = row_diagrams(rows, 4)
    return np.array([evaluate_jones(jones(d), -1.0) for d in diagrams])[index]


def test_n4_table_by_orbit():
    # The 2,594 valid 4-mosaics fall into 160 orbits, which cover them
    # exactly; both invariants are checked constant on every member.
    mosaics = list(enumerate_mosaics(4))
    rows = np.array([m.cells for m in mosaics], dtype=np.uint8)
    assert _components(rows).tolist() == [len(trace_components(m)) for m in mosaics]
    components = row_observable(_components, 4, TABLE)
    labels = [components.orbit_index(m) for m in mosaics]
    sizes = components.orbit_sizes
    assert len(sizes) == 160 and sum(sizes.values()) == len(mosaics) == 2594
    assert all(labels.count(label) == size for label, size in sizes.items())
    by_count = {}
    for value in components.eigenvalue.values():
        by_count[int(value)] = by_count.get(int(value), 0) + 1
    assert by_count == {0: 1, 1: 81, 2: 66, 3: 9, 4: 2, 5: 1}
    # V(-1) on the knot orbits: 73 unknot orbits, and 8 of the two trefoils
    v_minus1 = row_observable(_v_minus1_rows, 4, TABLE)
    knots = [label for label, value in components.eigenvalue.items() if value == 1]
    values = [v_minus1.eigenvalue_for(label) for label in knots]
    assert sorted(set(values)) == [-3.0, 1.0]
    assert (values.count(1.0), values.count(-3.0)) == (73, 8)
