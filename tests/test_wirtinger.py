"""Knot group presentations: one conjugation relation per crossing, H1 = Z."""

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import CHILD_ENV, random_diagram, torus_polyline
from oracles import from_xcode, oracle_abelianization_rank, relation_exponent_sums

from knotfield.errors import KnotfieldError
from knotfield.diagram import Crossing, PlanarDiagram, to_diagram
from knotfield.project import project_diagram, reduce_diagram
from knotfield.wirtinger import WirtingerPresentation, abelianization_rank, wirtinger


def test_trefoil_presentation(trefoil):
    p = wirtinger(to_diagram(trefoil))
    assert len(p.generators) == 3
    assert len(p.relations) == 3
    assert abelianization_rank(p) == 1


def test_fig8_presentation(fig8):
    p = wirtinger(to_diagram(fig8))
    assert len(p.generators) == 4
    assert len(p.relations) == 4
    assert abelianization_rank(p) == 1


def test_granny_presentation(granny):
    p = wirtinger(to_diagram(granny))
    assert len(p.generators) == 6
    assert len(p.relations) == 6
    assert abelianization_rank(p) == 1


@pytest.mark.parametrize("name", ["trefoil", "fig8", "granny"])
def test_relations_trivialize_under_degree_map(name, request):
    # Sending every generator to t makes each relation's exponent sum vanish:
    # the certificate that the complement maps to the circle with degree one.
    p = wirtinger(to_diagram(request.getfixturevalue(name)))
    for sums in relation_exponent_sums(p):
        assert sum(sums.values()) == 0


def test_unknot_presentation():
    p = wirtinger(PlanarDiagram((), 1, 1))
    assert p.generators == ("a1",)
    assert p.relations == ()
    assert abelianization_rank(p) == 1


def test_extra_relation_kills_h1(trefoil):
    p = wirtinger(to_diagram(trefoil))
    assert oracle_abelianization_rank(p, extra_rows=[{p.generators[0]: 1}]) == 0


def test_links_rejected():
    hopf = PlanarDiagram((Crossing((1, 3, 2, 4), 1), Crossing((3, 1, 4, 2), 1)), 0, 2)
    with pytest.raises(KnotfieldError):
        wirtinger(hopf)


def test_reduced_trefoil_presentation(trefoil):
    p = wirtinger(reduce_diagram(to_diagram(trefoil)))
    assert len(p.generators) == 3
    assert abelianization_rank(p) == 1


def test_projected_torus_knot_presentation():
    raw = project_diagram(torus_polyline(2, 5, 420))
    for d in (raw, reduce_diagram(raw)):
        p = wirtinger(d)
        assert len(p.generators) == len(p.relations) == len(d.crossings)
        assert abelianization_rank(p) == 1


def test_xcode_trefoil_presentation():
    p = wirtinger(from_xcode([(1, 5, 2, 4), (3, 1, 4, 6), (5, 3, 6, 2)]))
    assert len(p.generators) == 3
    assert abelianization_rank(p) == 1


@given(st.integers(0, 2 ** 32 - 1), st.integers(4, 7))
@settings(max_examples=60, deadline=None)
def test_reduced_mosaic_knot_presentation(seed, n):
    d = reduce_diagram(random_diagram(seed, n, link=False))
    c = len(d.crossings)
    p = wirtinger(d)
    if c:
        assert len(p.generators) == len(p.relations) == c
    assert abelianization_rank(p) == 1


def test_zero_based_ids_rejected():
    # The trefoil with every edge id one lower: one clear error, not an IndexError.
    d = PlanarDiagram((Crossing((4, 1, 5, 2), 1), Crossing((2, 5, 3, 0), 1),
                       Crossing((0, 3, 1, 4), 1)))
    with pytest.raises(KnotfieldError, match=r"edge id 0 outside 1\.\.6"):
        wirtinger(d)


def test_unknown_generator_rejected():
    with pytest.raises(KnotfieldError):
        WirtingerPresentation(("a1",), (("a1", "a2", "a1"),))


def test_to_text_format(trefoil):
    text = wirtinger(to_diagram(trefoil)).to_text()
    assert text.startswith("gens: a1 a2 a3\n")
    assert "rel 1:" in text and "^-1" in text


@given(st.integers(1, 6).flatmap(lambda cols: st.lists(
    st.lists(st.integers(-4, 4), min_size=cols, max_size=cols), min_size=1, max_size=6)))
@settings(max_examples=200, deadline=None)
def test_rank_matches_numpy(matrix):
    # Relations given only as extra rows make the rank of H1 equal
    # generators minus the rank of exactly this integer matrix.
    gens = tuple(f"a{j + 1}" for j in range(len(matrix[0])))
    p = WirtingerPresentation(gens, ())
    rows = [dict(zip(gens, row)) for row in matrix]
    expected = len(gens) - int(np.linalg.matrix_rank(np.array(matrix, dtype=float)))
    assert oracle_abelianization_rank(p, extra_rows=rows) == expected


_LABELS = st.integers(1, 12).map(lambda k: tuple(f"a{j + 1}" for j in range(k)))


@given(_LABELS.flatmap(lambda gens: st.tuples(
    st.just(gens), st.lists(st.tuples(*[st.sampled_from(gens)] * 3), max_size=16))))
@settings(max_examples=300, deadline=None)
def test_class_count_matches_oracle_on_random_presentations(drawn):
    # Labels drawn with repeats give out == inp relations (zero rows) and
    # generators no relation touches (zero columns), the edge cases of both.
    gens, relations = drawn
    p = WirtingerPresentation(gens, tuple(relations))
    assert abelianization_rank(p) == oracle_abelianization_rank(p)


@given(st.integers(0, 2 ** 32 - 1), st.integers(4, 7))
@settings(max_examples=40, deadline=None)
def test_class_count_matches_oracle_on_mosaic_knots(seed, n):
    p = wirtinger(reduce_diagram(random_diagram(seed, n, link=False)))
    assert abelianization_rank(p) == oracle_abelianization_rank(p)


@pytest.mark.parametrize("q,k", [(3, 300), (5, 420), (7, 540)])
def test_class_count_matches_oracle_on_projected_torus_knots(q, k):
    raw = project_diagram(torus_polyline(2, q, k))
    for d in (raw, reduce_diagram(raw)):
        p = wirtinger(d)
        assert abelianization_rank(p) == oracle_abelianization_rank(p)


def test_cli_import_leaves_out_fractions():
    # The rank is a class count: no exact rational arithmetic at run time.
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, knotfield.cli; print('fractions' in sys.modules)"],
        capture_output=True, text=True, env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_fixture_presentations_pinned(trefoil, fig8):
    # Arc labels follow the roots the union-find picks, so these pin the
    # presentations `knotfield wirtinger` prints for the two fixtures.
    assert wirtinger(to_diagram(trefoil)).relations == (
        ("a3", "a2", "a1"), ("a2", "a1", "a3"), ("a1", "a3", "a2"))
    assert wirtinger(to_diagram(fig8)).relations == (
        ("a2", "a4", "a3"), ("a4", "a2", "a1"), ("a4", "a1", "a3"), ("a2", "a3", "a1"))
