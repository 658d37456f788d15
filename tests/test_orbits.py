"""Orbit closure under the move table, with pinned sizes for the 4x4 lattice."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from knotfield.errors import BudgetExceededError, KnotfieldError
from knotfield.mosaic import Mosaic, decode, encode, random_mosaic
from knotfield.moves import apply, default_table
from knotfield.orbits import DEFAULT_BUDGET, compile_instances, orbit, same_orbit

from oracles import oracle_orbit

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


def test_same_orbit_with_witness(trefoil):
    partner = decode(TREFOIL_PARTNER)
    same, witness = same_orbit(trefoil, partner, TABLE)
    assert same
    # Replaying the witness from the orbit representative lands on partner.
    state = orbit(trefoil, TABLE).representative
    for inst in witness:
        state = apply(inst, state)
    assert state == partner


def test_unknot_and_trefoil_disjoint(trefoil):
    same, witness = same_orbit(trefoil, CIRCLE4, TABLE)
    assert not same
    assert witness is None


def test_different_sizes_rejected(trefoil):
    with pytest.raises(KnotfieldError):
        same_orbit(trefoil, CIRCLE3, TABLE)


def test_budget_enforced():
    with pytest.raises(BudgetExceededError):
        orbit(CIRCLE4, TABLE, budget=100)


def _assert_same_bfs(m):
    got = list(orbit(m, TABLE)._parents.items())
    assert got == list(oracle_orbit(m, TABLE, DEFAULT_BUDGET).items())


@pytest.mark.parametrize("name", ["circle3", "trefoil", "fig8"])
def test_bfs_order_matches_oracle(name, request):
    _assert_same_bfs(CIRCLE3 if name == "circle3" else request.getfixturevalue(name))


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
