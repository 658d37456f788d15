"""Orbit closure under the move table, with pinned sizes for the 4x4 lattice."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from knotfield.errors import BudgetExceededError, KnotfieldError
from knotfield.mosaic import Mosaic, decode, encode, random_mosaic
from knotfield.moves import apply, default_table
from knotfield.orbits import DEFAULT_BUDGET, compile_instances, orbit, same_orbit

from oracles import oracle_orbit, oracle_witness

TABLE = default_table()

CIRCLE3 = Mosaic(3, (2, 1, 0, 3, 4, 0, 0, 0, 0))
CIRCLE4 = Mosaic(4, (2, 1, 0, 0, 3, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0))
CIRCLE5 = Mosaic(5, (0,) * 6 + (2, 1, 0, 0, 0, 3, 4) + (0,) * 12)

# A second trefoil mosaic reached from the fixture by one planar move.
TREFOIL_PARTNER = "4\n2 5 1 0\n6 2 9 1\n3 9 10 4\n0 3 4 0\n"


def test_blank_orbit_is_trivial():
    orb = orbit(Mosaic(4, (0,) * 16), TABLE)
    assert orb.size == 1


def test_circle3_orbit_pinned():
    assert orbit(CIRCLE3, TABLE).size == 19


def test_circle4_orbit_pinned():
    assert orbit(CIRCLE4, TABLE).size == 1348


def test_trefoil_orbit_pinned(trefoil):
    orb = orbit(trefoil, TABLE)
    assert orb.size == 2
    assert decode(TREFOIL_PARTNER) in orb


def test_orbit_members_are_valid_encodings(trefoil):
    orb = orbit(trefoil, TABLE)
    for key in orb.members:
        assert encode(decode(key)) == key


def _no_text(_m):
    raise AssertionError("orbit built member text")


def test_same_orbit_with_witness(trefoil, monkeypatch):
    # Closure, size, membership and witnesses of mosaics never build text.
    monkeypatch.setattr("knotfield.orbits.encode", _no_text)
    partner = decode(TREFOIL_PARTNER)
    same, witness = same_orbit(trefoil, partner, TABLE)
    assert same
    orb = orbit(trefoil, TABLE)
    assert orb.size == 2 and partner in orb and CIRCLE4 not in orb
    assert orb.witness_for(partner) == witness
    # Replaying the witness from the orbit representative lands on partner.
    state = orb.representative
    for inst in witness:
        state = apply(inst, state)
    assert state == partner


@pytest.mark.parametrize("name", ["circle3", "trefoil", "fig8"])
def test_witness_matches_oracle(name, request):
    m = CIRCLE3 if name == "circle3" else request.getfixturevalue(name)
    orb = orbit(m, TABLE)
    for k in orb.member_mosaics():
        assert orb.witness_for(k) == oracle_witness(orb._parents, k, TABLE)


def test_witness_matches_oracle_circle4():
    orb = orbit(CIRCLE4, TABLE)
    rows = random.Random(0).sample(list(orb._parents), 200)
    for row in rows:
        k = Mosaic(4, tuple(row))
        assert orb.witness_for(k) == oracle_witness(orb._parents, k, TABLE)


def test_label_is_first_member_text(trefoil, monkeypatch):
    orb = orbit(CIRCLE4, TABLE)
    want = min(orb.members)  # the text of every member, built before counting
    assert want != encode(orb.representative)
    calls = []
    monkeypatch.setattr("knotfield.orbits.encode", lambda m: calls.append(m) or encode(m))
    assert orb.label == want and orb.label == want
    assert len(calls) == 1
    monkeypatch.undo()
    orb = orbit(trefoil, TABLE)
    assert orb.label == min(orb.members)


def test_unknot_and_trefoil_disjoint(trefoil):
    same, witness = same_orbit(trefoil, CIRCLE4, TABLE)
    assert not same
    assert witness is None
    orb = orbit(trefoil, TABLE)
    assert "garbage" not in orb
    assert encode(CIRCLE4) not in orb
    assert Mosaic(4, (300,) * 16) not in orb
    for stranger in (CIRCLE4, encode(CIRCLE4), "garbage"):
        with pytest.raises(KnotfieldError):
            orb.witness_for(stranger)


def test_different_sizes_rejected(trefoil):
    with pytest.raises(KnotfieldError):
        same_orbit(trefoil, CIRCLE3, TABLE)


def test_budget_enforced():
    with pytest.raises(BudgetExceededError):
        orbit(CIRCLE4, TABLE, budget=100)
    for budget in (0, -5):
        with pytest.raises(KnotfieldError, match="must be at least 1"):
            orbit(Mosaic(2, (0,) * 4), TABLE, budget=budget)


def _assert_same_bfs(m):
    orb = orbit(m, TABLE)
    want = oracle_orbit(m, TABLE, DEFAULT_BUDGET)
    assert list(orb._parents.items()) == list(want.items())
    assert orb.members == {encode(Mosaic(m.n, tuple(s))) for s in want}


@pytest.mark.parametrize("name", ["circle3", "circle4", "trefoil", "fig8"])
def test_bfs_order_matches_oracle(name, request):
    pinned = {"circle3": CIRCLE3, "circle4": CIRCLE4}
    _assert_same_bfs(pinned[name] if name in pinned else request.getfixturevalue(name))


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_bfs_order_matches_oracle_3x3(seed):
    _assert_same_bfs(random_mosaic(3, random.Random(seed)))


def test_budget_seen_matches_oracle():
    with pytest.raises(BudgetExceededError) as want:
        oracle_orbit(CIRCLE5, TABLE, 300)
    with pytest.raises(BudgetExceededError) as got:
        orbit(CIRCLE5, TABLE, budget=300)
    assert got.value.seen == want.value.seen


def test_compile_instances_cached_read_only():
    first = compile_instances(TABLE, 4)
    again = compile_instances(list(TABLE), 4)
    assert all(a is b for a, b in zip(first, again))
    assert not any(arr.flags.writeable for arr in first[1:])
    assert compile_instances(TABLE, 3)[1] is not first[1]
    assert compile_instances(TABLE[:-1], 4)[1] is not first[1]
    assert len(compile_instances(TABLE[:-1], 4)[0]) < len(first[0])
