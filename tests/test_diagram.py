"""Bracket and Jones polynomials, checked against the exhaustive oracle."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import FIG8_JONES, TREFOIL_JONES, UNKNOT_JONES, crossing_mosaic, random_diagram
from oracles import (from_xcode, oracle_bracket, oracle_contraction_order, oracle_jones,
                     oracle_to_diagram, oracle_writhe)

from knotfield.errors import CrossingCapError, KnotfieldError
from knotfield.diagram import (
    CROSSING_CAP,
    SIDE_VECTORS,
    Crossing,
    PlanarDiagram,
    _contraction_order,
    bracket,
    evaluate_jones,
    from_traversal,
    jones,
    jones_in_t,
    to_diagram,
)
from knotfield.laurent import LaurentPolynomial
from knotfield.mosaic import CROSSING_OVER, CROSSING_TILES, Mosaic, trace_components
from knotfield.moves import default_table
from knotfield.orbits import orbit
from knotfield.project import reduce_diagram
from knotfield.rows import row_diagrams


def test_unknot_jones_is_one():
    d = PlanarDiagram((), 1, 1)
    assert jones(d) == UNKNOT_JONES


def test_kink_brackets():
    # One crossing with each edge joined to itself: <kink+-> = -A^(+-3).
    pos = PlanarDiagram((Crossing((1, 1, 2, 2), 3),), 0, 1)
    assert pos.writhe == 1
    assert bracket(pos) == LaurentPolynomial({3: -1})
    assert jones(pos) == UNKNOT_JONES  # writhe normalization removes the kink
    neg = PlanarDiagram((Crossing((1, 2, 2, 1), 1),), 0, 1)
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


def test_negative_t_on_even_component_link_names_the_cause():
    hopf = from_xcode([(1, 3, 2, 4), (3, 1, 4, 2)])
    with pytest.raises(KnotfieldError, match="link with an even number of components"):
        evaluate_jones(jones(hopf), -1.0)
    assert evaluate_jones(jones(hopf), 1.0) == -2.0


def test_crossing_cap(monkeypatch):
    d = to_diagram(Mosaic(4, (0, 2, 1, 0, 2, 8, 9, 1, 3, 9, 10, 4, 0, 3, 4, 0)))
    monkeypatch.setattr("knotfield.diagram.CROSSING_CAP", 3)  # at the cap: contracted
    assert dict(bracket(d).terms()) == oracle_bracket(d)
    monkeypatch.setattr("knotfield.diagram.CROSSING_CAP", 2)
    with pytest.raises(CrossingCapError, match="above the bracket's crossing cap of 2"):
        bracket(d)


@pytest.mark.parametrize("crossings,message", [
    ((Crossing((1, 1, 1, 2), 1), Crossing((2, 3, 4, 4), 1)), "edge 1 appears 3 times, expected 2"),
    ((Crossing((1, 2, 2, 1), 0),), r"crossing \(1, 2, 2, 1\) has over_in 0, expected 1 or 3"),
], ids=["edge-thrice", "over-in-0"])
def test_check_rejects_malformed_crossings(crossings, message):
    with pytest.raises(KnotfieldError, match=f"^{message}$"):
        PlanarDiagram(crossings).check()


def test_empty_diagram_has_no_bracket():
    with pytest.raises(KnotfieldError, match="^empty diagram has no bracket$"):
        bracket(PlanarDiagram((), 0, 1))


def test_jones_rejects_an_odd_bracket_exponent(monkeypatch):
    monkeypatch.setattr("knotfield.diagram.bracket", lambda d: LaurentPolynomial({1: 1}))
    with pytest.raises(KnotfieldError, match="^odd A-exponent in normalized bracket"):
        jones(PlanarDiagram((), 1, 1))


def test_evaluate_jones_rejects_t_zero():
    with pytest.raises(KnotfieldError, match="^cannot evaluate at t = 0$"):
        evaluate_jones(UNKNOT_JONES, 0)


def test_bracket_rejects_open_diagram():
    # Edges 2 and 3 each meet the crossing once, so no state closes up.
    with pytest.raises(KnotfieldError, match="does not close up"):
        bracket(PlanarDiagram((Crossing((1, 1, 2, 3), 3),), 0, 1))


def test_to_diagram_components(granny):
    d = to_diagram(granny)
    assert d.n_components == 1
    assert len(d.crossings) == 6
    d.check()


def test_trefoil_pd_code(trefoil):
    d = to_diagram(trefoil)
    assert d.pd_code() == "X(5,2,6,3) X(3,6,4,1) X(1,4,2,5)"
    assert d.n_edges == 6


@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 8))
@settings(max_examples=100, deadline=None)
def test_to_diagram_matches_side_table_oracle(seed, n):
    m = crossing_mosaic(random.Random(seed), n, max_crossings=n * n)
    if not trace_components(m):
        with pytest.raises(KnotfieldError, match="zero components"):
            to_diagram(m)
        return
    d, want = to_diagram(m), oracle_to_diagram(m)
    assert d.pd_code() == want.pd_code()
    assert d.crossings == want.crossings
    assert (d.free_loops, d.n_components) == (want.free_loops, want.n_components)


def test_from_traversal_kinks_and_free_loops():
    # One component passing its only crossing over (heading east), then
    # under (heading north): the under strand sees the over strand run from
    # left to right, a positive kink.
    assert from_traversal([[(7, True, (1, 0)), (7, False, (0, 1))]]) == KINK_POS
    assert from_traversal([[(7, True, (1, 0)), (7, False, (0, -1))]]) == KINK_NEG
    assert from_traversal([[], []]) == PlanarDiagram((), 2, 2)


def test_from_traversal_numbers_edges_along_the_component():
    # Edge j runs from passage j to passage j + 1; crossings sorted by key.
    passages = [(0, True, (1, 0)), (2, False, (0, 1)), (1, True, (-1, 0)),
                (0, False, (0, -1)), (2, True, (1, 0)), (1, False, (0, 1))]
    d = from_traversal([passages])
    assert d.pd_code() == "X(3,6,4,1) X(5,2,6,3) X(1,5,2,4)"
    assert [x.over_in for x in d.crossings] == [1, 1, 3]
    assert d.n_edges == 6


def test_from_traversal_rejects_unpaired_crossing():
    with pytest.raises(KnotfieldError, match="crossing 3 not traversed twice"):
        from_traversal([[(3, True, (1, 0))]])


@pytest.mark.parametrize("quads,stray", [
    (((4, 1, 5, 2), (2, 5, 3, 0), (0, 3, 1, 4)), 0),  # the trefoil with 0-based ids
    (((1, 2, 3, 4), (4, 3, 5, 7), (7, 5, 2, 1)), 7),  # 7 > 2c
])
def test_check_rejects_ids_outside_one_to_2c(quads, stray):
    d = PlanarDiagram(tuple(Crossing(q, 1) for q in quads))
    with pytest.raises(KnotfieldError, match=rf"edge id {stray} outside 1\.\.6"):
        d.check()


def _assert_oracle_bracket(d):
    assert dict(bracket(d).terms()) == oracle_bracket(d)
    assert dict(bracket(d.mirror()).terms()) == oracle_bracket(d.mirror())


@given(st.integers(0, 2 ** 32 - 1), st.integers(4, 7), st.booleans())
@settings(max_examples=60, deadline=None)
def test_bracket_matches_oracle_on_random_mosaics(seed, n, link):
    d = random_diagram(seed, n, link)
    assert len(d.crossings) <= 10
    _assert_oracle_bracket(d)
    _assert_oracle_bracket(reduce_diagram(d))


def _disjoint_union(a, b):
    """a and b side by side: b's edge ids shifted past a's."""
    shifted = tuple(Crossing(tuple(e + a.n_edges for e in x.ends), x.over_in)
                    for x in b.crossings)
    return PlanarDiagram(a.crossings + shifted, a.free_loops + b.free_loops,
                         a.n_components + b.n_components)


KINK_POS = PlanarDiagram((Crossing((1, 1, 2, 2), 3),), 0, 1)
KINK_NEG = PlanarDiagram((Crossing((1, 2, 2, 1), 1),), 0, 1)
# A circle with a positive and then a negative kink on it.
KINK_PAIR = PlanarDiagram((Crossing((1, 1, 2, 4), 3), Crossing((2, 3, 3, 4), 1)), 0, 1)


BUILT = ["kink_pos", "kink_neg", "kink_pair", "free_loops", "split", "split_with_kink"]


def _built_diagram(case, t, f):
    return {"kink_pos": KINK_POS, "kink_neg": KINK_NEG, "kink_pair": KINK_PAIR,
            "free_loops": PlanarDiagram(t.crossings, 2, 3),
            "split": _disjoint_union(t, f),
            "split_with_kink": _disjoint_union(t, KINK_PAIR)}[case]


@pytest.mark.parametrize("case", BUILT)
def test_bracket_matches_oracle_on_built_diagrams(case, trefoil, fig8):
    t, f = to_diagram(trefoil), to_diagram(fig8)
    d = _built_diagram(case, t, f)
    d.check()
    _assert_oracle_bracket(d)
    assert jones(d) == LaurentPolynomial(oracle_jones(d))
    if case == "split":  # <D1 u D2> = d <D1><D2>, d = -A^2 - A^-2
        assert bracket(d) == LaurentPolynomial({2: -1, -2: -1}) * bracket(t) * bracket(f)
    if case == "kink_pair":
        assert bracket(d) == LaurentPolynomial.one()


def _assert_oracle_order(d):
    assert _contraction_order(d.crossings) == oracle_contraction_order(d.crossings)


# The order decides only the bracket's cost, never its value, so these are the
# only tests that see it drift from the recount oracle.
@given(st.integers(0, 2 ** 32 - 1), st.integers(4, 7), st.booleans())
@settings(max_examples=60, deadline=None)
def test_contraction_order_matches_oracle_on_random_mosaics(seed, n, link):
    d = random_diagram(seed, n, link)
    _assert_oracle_order(d)
    _assert_oracle_order(reduce_diagram(d))


@pytest.mark.parametrize("case", BUILT)
def test_contraction_order_matches_oracle_on_built_diagrams(case, trefoil, fig8):
    _assert_oracle_order(_built_diagram(case, to_diagram(trefoil), to_diagram(fig8)))


def _passages(m, key):
    """The crossing passages of knot mosaic m for `from_traversal`, keyed (key, cell)."""
    (strand,) = trace_components(m)
    return [((key, cell), exit_ in CROSSING_OVER[m.cells[cell]], SIDE_VECTORS[exit_])
            for cell, _, exit_ in strand.passages if m.cells[cell] in CROSSING_TILES]


def test_connected_sums_multiply_jones_up_to_the_cap(trefoil, granny):
    # Concatenating two knots' traversals cuts each open at one edge and
    # joins the ends: a diagram of the connected sum, and V(K1 # K2) =
    # V(K1) V(K2).  Four granny knots reach the cap, far past the 2^c oracle.
    mirror = [(key, not over, d) for key, over, d in _passages(trefoil, 1)]
    assert jones(from_traversal([mirror])) == TREFOIL_JONES.mirror()
    grannies = [_passages(granny, k) for k in range(4)]
    assert len(from_traversal([sum(grannies, [])]).crossings) == CROSSING_CAP
    free_loop = LaurentPolynomial({1: -1, -1: -1})  # adding one multiplies V by -(s + 1/s)
    for parts in (grannies, [_passages(trefoil, 0), mirror]):
        joined = sum(parts, [])
        want = LaurentPolynomial.one()
        for part in parts:
            want = want * jones(from_traversal([part]))
        assert jones(from_traversal([joined])) == want
        assert jones(from_traversal([joined, []])) == want * free_loop


def _assert_rows_diagram_as_mosaics(rows, n):
    diagrams, index = row_diagrams(rows, n)
    want = [to_diagram(Mosaic(n, tuple(r))) for r in rows.tolist()]
    assert [diagrams[i] for i in index.tolist()] == want
    # each distinct diagram built once, in the order of first appearance
    assert diagrams == list(dict.fromkeys(want))


def test_row_diagrams_match_to_diagram_on_orbit_classes(trefoil, fig8, granny):
    circles = [(0,) * 10 + (2, 1, 0, 0, 3, 4), (0,) * 5 + (2, 1, 0, 2, 7, 8, 1, 3, 4, 3, 4)]
    circle3 = Mosaic(3, (0, 0, 0, 0, 2, 1, 0, 3, 4))
    starts = [Mosaic(4, c) for c in circles] + [trefoil, fig8, circle3]
    for m in starts:
        _assert_rows_diagram_as_mosaics(orbit(m, default_table()).member_rows(), m.n)
    _assert_rows_diagram_as_mosaics(np.array([granny.cells], dtype=np.uint8), granny.n)


@given(st.integers(2, 7).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.integers(0, 2 ** 32 - 1), min_size=1, max_size=10))))
@settings(max_examples=60, deadline=None)
def test_row_diagrams_match_to_diagram_on_random_batches(batch):
    # Mostly crossings, some rows repeated, links and knots mixed.
    n, seeds = batch
    ms = [crossing_mosaic(random.Random(seed), n) for seed in seeds]
    ms = [m for m in ms + ms[:2] if trace_components(m)]
    if ms:
        _assert_rows_diagram_as_mosaics(np.array([m.cells for m in ms], dtype=np.uint8), n)


def test_row_diagrams_reject_zero_components_as_to_diagram():
    blank = np.zeros((1, 16), dtype=np.uint8)
    with pytest.raises(KnotfieldError, match="^mosaic has zero components$"):
        to_diagram(Mosaic(4, (0,) * 16))
    with pytest.raises(KnotfieldError, match="^mosaic has zero components$"):
        row_diagrams(blank, 4)
