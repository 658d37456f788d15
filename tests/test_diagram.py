"""Bracket and Jones polynomials, checked against the exhaustive oracle."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import FIG8_JONES, TREFOIL_JONES, UNKNOT_JONES
from oracles import oracle_bracket, oracle_jones, oracle_writhe

from knotfield.errors import KnotfieldError
from knotfield.diagram import (
    Crossing,
    PlanarDiagram,
    bracket,
    evaluate_jones,
    from_xcode,
    jones,
    jones_in_t,
    to_diagram,
)
from knotfield.laurent import LaurentPolynomial
from knotfield.mosaic import Mosaic, random_mosaic, trace_components
from knotfield.project import reduce_diagram


def test_unknot_jones_is_one():
    d = PlanarDiagram((), 0, 1, 1)
    assert jones(d) == UNKNOT_JONES


def test_kink_brackets():
    # One crossing with each edge joined to itself: <kink+-> = -A^(+-3).
    pos = PlanarDiagram((Crossing((1, 1, 2, 2), 3),), 2, 0, 1)
    assert pos.writhe == 1
    assert bracket(pos) == LaurentPolynomial({3: -1})
    assert jones(pos) == UNKNOT_JONES  # writhe normalization removes the kink
    neg = PlanarDiagram((Crossing((1, 2, 2, 1), 1),), 2, 0, 1)
    assert neg.writhe == -1
    assert bracket(neg) == LaurentPolynomial({-3: -1})
    assert jones(neg) == UNKNOT_JONES


def test_trefoil_fixture_jones(trefoil):
    assert jones(to_diagram(trefoil)) == TREFOIL_JONES


def test_fig8_fixture_jones(fig8):
    v = jones(to_diagram(fig8))
    assert v == FIG8_JONES
    assert v == v.mirror()  # amphichiral


def test_granny_is_trefoil_squared(granny, trefoil):
    assert jones(to_diagram(granny)) == jones(to_diagram(trefoil)) ** 2


@pytest.mark.parametrize("name", ["trefoil", "fig8", "granny"])
def test_oracle_equivalence(name, request):
    d = to_diagram(request.getfixturevalue(name))
    assert len(d.crossings) <= 6
    assert dict(bracket(d).terms()) == oracle_bracket(d)
    assert dict(jones(d).terms()) == oracle_jones(d)
    assert d.writhe == oracle_writhe(d)


def test_mirror_negates_jones_exponents(trefoil):
    d = to_diagram(trefoil)
    assert jones(d.mirror()) == jones(d).mirror()


def test_jones_in_t_units(trefoil):
    vt = jones_in_t(jones(to_diagram(trefoil)))
    assert dict(vt.terms()) == {-4: -1, -3: 1, -1: 1}
    assert evaluate_jones(jones(to_diagram(trefoil)), -1.0) == pytest.approx(-3.0)


def test_half_integer_powers_rejected():
    # The Hopf link bracket lives in odd s-exponents; t-conversion must refuse.
    hopf = from_xcode([(1, 3, 2, 4), (3, 1, 4, 2)])
    with pytest.raises(KnotfieldError):
        jones_in_t(jones(hopf))


def test_crossing_cap():
    d = to_diagram(Mosaic(4, (0, 2, 1, 0, 2, 8, 9, 1, 3, 9, 10, 4, 0, 3, 4, 0)))
    with pytest.raises(KnotfieldError):
        bracket(d, cap=2)


def test_bracket_rejects_open_diagram():
    # Edges 2 and 3 each meet the crossing once, so no state closes up.
    with pytest.raises(KnotfieldError, match="does not close up"):
        bracket(PlanarDiagram((Crossing((1, 1, 2, 3), 3),), 3, 0, 1))


def test_to_diagram_components(granny):
    d = to_diagram(granny)
    assert d.n_components == 1
    assert len(d.crossings) == 6
    d.check()


def _random_diagram(seed, n, link, max_crossings=10):
    """Diagram of a random valid n x n mosaic with at most `max_crossings`
    crossings: one component if not `link`, else at least two.  Four-sided
    tiles are redrawn, mostly as crossings, so that c reaches the cap."""
    rng = random.Random(seed)
    while True:
        cells = list(random_mosaic(n, rng).cells)
        full = [i for i, t in enumerate(cells) if t in (7, 8, 9, 10)]
        rng.shuffle(full)
        for k, i in enumerate(full):
            cells[i] = rng.choice((9, 10) if k < max_crossings else (7, 8))
        m = Mosaic(n, tuple(cells))
        strands = trace_components(m)
        if strands and (len(strands) > 1) == link:
            return to_diagram(m)


def _assert_oracle_bracket(d):
    assert dict(bracket(d).terms()) == oracle_bracket(d)
    assert dict(bracket(d.mirror()).terms()) == oracle_bracket(d.mirror())


@given(st.integers(0, 2 ** 32 - 1), st.integers(4, 7), st.booleans())
@settings(max_examples=60, deadline=None)
def test_bracket_matches_oracle_on_random_mosaics(seed, n, link):
    d = _random_diagram(seed, n, link)
    assert len(d.crossings) <= 10
    _assert_oracle_bracket(d)
    _assert_oracle_bracket(reduce_diagram(d))


def _disjoint_union(a, b):
    """a and b side by side: b's edge ids shifted past a's."""
    shifted = tuple(Crossing(tuple(e + a.n_edges for e in x.ends), x.over_in)
                    for x in b.crossings)
    return PlanarDiagram(a.crossings + shifted, a.n_edges + b.n_edges,
                         a.free_loops + b.free_loops, a.n_components + b.n_components)


KINK_POS = PlanarDiagram((Crossing((1, 1, 2, 2), 3),), 2, 0, 1)
KINK_NEG = PlanarDiagram((Crossing((1, 2, 2, 1), 1),), 2, 0, 1)
# A circle with a positive and then a negative kink on it.
KINK_PAIR = PlanarDiagram((Crossing((1, 1, 2, 4), 3), Crossing((2, 3, 3, 4), 1)), 4, 0, 1)


@pytest.mark.parametrize("case", ["kink_pos", "kink_neg", "kink_pair", "free_loops",
                                  "split", "split_with_kink"])
def test_bracket_matches_oracle_on_built_diagrams(case, trefoil, fig8):
    t, f = to_diagram(trefoil), to_diagram(fig8)
    d = {"kink_pos": KINK_POS, "kink_neg": KINK_NEG, "kink_pair": KINK_PAIR,
         "free_loops": PlanarDiagram(t.crossings, t.n_edges, 2, 3),
         "split": _disjoint_union(t, f),
         "split_with_kink": _disjoint_union(t, KINK_PAIR)}[case]
    d.check()
    _assert_oracle_bracket(d)
    assert jones(d) == LaurentPolynomial(oracle_jones(d))
    if case == "split":  # <D1 u D2> = d <D1><D2>, d = -A^2 - A^-2
        assert bracket(d) == LaurentPolynomial({2: -1, -2: -1}) * bracket(t) * bracket(f)
    if case == "kink_pair":
        assert bracket(d) == LaurentPolynomial.one()
