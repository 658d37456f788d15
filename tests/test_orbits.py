"""Orbit closure under the move table, with pinned sizes for the 4x4 lattice."""

import pytest

from knotfield.errors import BudgetExceededError, KnotfieldError
from knotfield.mosaic import Mosaic, decode, encode
from knotfield.moves import apply, default_table
from knotfield.orbits import orbit, same_orbit

TABLE = default_table()

CIRCLE3 = Mosaic(3, (2, 1, 0, 3, 4, 0, 0, 0, 0))
CIRCLE4 = Mosaic(4, (2, 1, 0, 0, 3, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0))

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

