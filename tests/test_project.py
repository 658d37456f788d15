"""Polyline projection, diagram reduction, and knot-type verification.

The parametric curve ((2+cos 2t) cos 3t, (2+cos 2t) sin 3t, sin 4t) is a
figure-eight knot, so its Jones polynomial is known exactly and gives an
end-to-end oracle for project + reduce + jones.

The swept crossing finder is checked against the per-segment loop in
oracles.py on every library curve and on hypothesis polylines built to hit
its tolerances: events with bit-equal parameters, and the same error.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import oracle_contraction_order, oracle_crossing_events

from conftest import (FIG8_JONES, LIBRARY, LIBRARY_IDS, TREFOIL_JONES, UNKNOT_JONES,
                      library_grid, torus_polyline)

from knotfield import project
from knotfield.errors import CrossingCapError, KnotfieldError, NonGenericProjectionError
from knotfield.diagram import Crossing, PlanarDiagram, _contraction_order, jones, to_diagram
from knotfield.extraction import SampleGrid, extract
from knotfield.fields import field_library
from knotfield.mosaic import Mosaic, enumerate_mosaics
from knotfield.laurent import LaurentPolynomial
from knotfield.project import (
    PROJECTION_START,
    VerificationReport,
    _crossing_events,
    project_diagram,
    reduce_diagram,
    verify_knot_type,
)


def fig8_polyline(k=400):
    t = np.linspace(0.0, 2 * np.pi, k, endpoint=False)
    r = 2 + np.cos(2 * t)
    return np.column_stack([r * np.cos(3 * t), r * np.sin(3 * t), np.sin(4 * t)])


def test_parametric_fig8_jones():
    d = reduce_diagram(project_diagram(fig8_polyline()))
    assert jones(d) in (FIG8_JONES, FIG8_JONES.mirror())


def torus_jones(p, q):
    """Jones polynomial of the (p, q) torus knot in s = t^(1/2) units:
    t^((p-1)(q-1)/2) (1 - t^(p+1) - t^(q+1) + t^(p+q)) / (1 - t^2)."""
    num = {0: 1, p + 1: -1, q + 1: -1, p + q: 1}
    quot = {}
    for k in range(p + q - 1):
        quot[k] = num.get(k, 0) + quot.get(k - 2, 0)
    for k in (p + q - 1, p + q):  # the remainder must vanish
        assert num.get(k, 0) + quot.get(k - 2, 0) == 0
    shift = (p - 1) * (q - 1) // 2
    return LaurentPolynomial({2 * (k + shift): v for k, v in quot.items()})


TORUS_KNOTS = [(2, 5), (3, 4), (2, 21), (4, 7), (2, 23), (5, 6)]


def _torus_diagram(p, q):
    return reduce_diagram(project_diagram(torus_polyline(p, q, 60 * (p + q))))


@pytest.mark.parametrize("p,q", TORUS_KNOTS)
def test_torus_knot_jones_closed_form(p, q):
    # Up to 24 crossings: far beyond an exhaustive sum over 2^c states.
    d = _torus_diagram(p, q)
    assert len(d.crossings) == (p - 1) * q
    want = torus_jones(p, q)
    assert jones(d) in (want, want.mirror())


@pytest.mark.parametrize("p,q", TORUS_KNOTS)
def test_torus_knot_contraction_order_matches_oracle(p, q):
    d = _torus_diagram(p, q)
    assert _contraction_order(d.crossings) == oracle_contraction_order(d.crossings)


def test_crossing_signs_follow_the_segment_directions():
    # An 8-vertex (2, 3) torus polygon: its corners are so sharp that a
    # segment's direction is far from its neighbours', so each crossing's
    # sign must come from the two segments that cross there.  The Jones
    # polynomial alone would not tell: with the next segment's direction
    # the writhe reads -4 and the polynomial stays the same.
    t = 2 * np.pi * np.arange(8) / 8 + 0.1
    r = 2 + np.cos(3 * t)
    pts = np.column_stack([r * np.cos(2 * t), r * np.sin(2 * t), np.sin(3 * t)])
    d = project_diagram(pts)
    # The starting direction is generic here, so the diagram is read in its
    # frame, and the oracle finds the same crossings in the same order.
    normal, e1, e2 = project._frame(PROJECTION_START)
    scale = float(np.ptp(pts, axis=0).max())
    events = oracle_crossing_events(np.column_stack([pts @ e1, pts @ e2]), pts @ normal, scale)
    step = pts[(np.arange(8) + 1) % 8] - pts  # segment i, vertex i to vertex i + 1, in 3-D
    direction = np.column_stack([step @ e1, step @ e2])
    want = []
    for i, _, j, _, over_is_i in events:
        (ux, uy), (ox, oy) = direction[[j, i] if over_is_i else [i, j]]
        want.append(1 if ux * oy - uy * ox < 0 else -1)  # the PD convention's sign
    assert [x.sign for x in d.crossings] == want == [1, -1, -1, -1]
    assert jones(d) == LaurentPolynomial({-8: -1, -6: 1, -2: 1})


def test_planar_circle_is_unknot():
    t = np.linspace(0.0, 2 * np.pi, 60, endpoint=False)
    pts = np.column_stack([np.cos(t), np.sin(t), np.zeros_like(t)])
    d = project_diagram(pts)
    assert jones(reduce_diagram(d)) == UNKNOT_JONES


def test_too_short_polyline():
    with pytest.raises(KnotfieldError):
        project_diagram(np.zeros((2, 3)))


def test_closed_duplicate_endpoint_dropped():
    t = np.linspace(0.0, 2 * np.pi, 61)  # endpoint repeats the start
    pts = np.column_stack([np.cos(t), np.sin(t), np.zeros_like(t)])
    assert jones(reduce_diagram(project_diagram(pts))) == UNKNOT_JONES


@pytest.mark.parametrize("k", [9, 10])
def test_far_polyline_keeps_its_last_vertex(k):
    # Far from the origin the last vertex is within a tolerance relative to
    # the coordinates of the first; dropping it would unknot the polygon.
    pts = torus_polyline(2, 3, k) + 1e6
    assert jones(reduce_diagram(project_diagram(pts))) in (TREFOIL_JONES, TREFOIL_JONES.mirror())


def test_reduce_preserves_jones_on_census():
    # every 4x4 mosaic diagram with crossings, spot-checked deterministically;
    # links too, whose bigons can leave free loops
    seen = 0
    for i, m in enumerate(enumerate_mosaics(4)):
        if i % 17:
            continue  # thin the census to keep runtime modest
        try:
            d = to_diagram(m)
        except KnotfieldError:
            continue
        if not d.crossings:
            continue
        r = reduce_diagram(d)
        assert jones(r) == jones(d)
        assert len(r.crossings) <= len(d.crossings)
        assert reduce_diagram(r) == r  # no move is left
        seen += 1
    assert seen > 20


def test_reduce_leaves_a_non_planar_code_alone():
    # Each edge meets the one crossing twice, at opposite ends: no kink, no bigon.
    d = PlanarDiagram((Crossing((1, 2, 1, 2), 1),))
    assert reduce_diagram(d) == d


def test_reduce_removes_kinks(trefoil):
    # projecting a noisy trefoil polyline gains spurious R1/R2 crossings
    curve = extract(field_library("milnor", (2, 3)), SampleGrid(resolution=48))
    raw = project_diagram(curve.components[0])
    red = reduce_diagram(raw)
    assert len(red.crossings) <= len(raw.crossings)
    assert jones(red) in (TREFOIL_JONES, TREFOIL_JONES.mirror())


@pytest.mark.parametrize("name,params,resolution,radius,code,reduced", [
    ("milnor", (2, 3), 48, 1.0, "X(6,3,1,4) X(4,1,5,2) X(2,5,3,6)",
     "X(1,2,3,4) X(4,3,5,6) X(6,5,2,1)"),
    ("rudolph_G", (), 64, 0.5, "X(12,9,1,10) X(8,1,9,2) X(2,5,3,6) X(3,11,4,10) "
                                "X(11,5,12,4) X(7,7,8,6)",
     "X(1,2,3,4) X(5,3,2,6) X(6,7,8,5) X(8,9,10,4) X(9,7,1,10)"),
])
def test_projected_pd_code_pinned(name, params, resolution, radius, code, reduced):
    curve = extract(field_library(name, params),
                    SampleGrid(chart="north", resolution=resolution, radius=radius))
    raw = project_diagram(curve.components[0])
    assert raw.pd_code() == code
    assert reduce_diagram(raw).pd_code() == reduced


def test_verify_extracted_trefoil(trefoil):
    curve = extract(field_library("milnor", (2, 3)), SampleGrid(resolution=64))
    report = verify_knot_type(curve, trefoil)
    assert report.match
    assert report.crossings_reduced <= report.crossings_raw
    assert "match" in report.to_text()


def test_verify_extracted_fig8():
    curve = extract(field_library("rudolph_G"), SampleGrid(resolution=64, radius=0.5))
    report = verify_knot_type(curve, FIG8_JONES)
    # the figure-eight is amphichiral: a match is a plain one, never a mirror one
    assert report.match and not report.mirrored
    assert report.computed == FIG8_JONES


def test_verify_mismatch_reported(trefoil):
    report = verify_knot_type(fig8_polyline(), TREFOIL_JONES)
    assert not report.match
    assert "MISMATCH" in report.to_text()


def test_verify_rejects_links():
    curve = extract(field_library("milnor", (2, 2)), SampleGrid(resolution=48))
    with pytest.raises(KnotfieldError):
        verify_knot_type(curve, UNKNOT_JONES)


def test_crossing_cap_enforced(monkeypatch):
    monkeypatch.setattr("knotfield.diagram.CROSSING_CAP", 2)
    with pytest.raises(CrossingCapError):
        verify_knot_type(fig8_polyline(), FIG8_JONES)


def test_crossing_cap_reaches_jones(monkeypatch):
    # The bracket reads the cap on every call, so verification follows it.
    monkeypatch.setattr("knotfield.diagram.CROSSING_CAP", 30)
    assert verify_knot_type(fig8_polyline(), FIG8_JONES).match
    monkeypatch.setattr("knotfield.diagram.CROSSING_CAP", 2)
    with pytest.raises(CrossingCapError) as exc:
        verify_knot_type(fig8_polyline(), FIG8_JONES)
    assert exc.value.cap == 2


def test_expected_jones_type_rejected():
    with pytest.raises(KnotfieldError):
        verify_knot_type(fig8_polyline(), "figure-eight")


def test_report_text_mirror():
    r = VerificationReport(True, True, TREFOIL_JONES.mirror(), TREFOIL_JONES, 6, 3)
    assert r.to_text().startswith("match (mirror)")


# ---------------------------------------------------------------------------
# The swept crossing finder against the per-segment oracle


def crossing_outcome(fn, pts2, depth, scale):
    """fn's events with parameters as exact hex strings, or its error text."""
    try:
        events = fn(pts2, depth, scale)
    except NonGenericProjectionError as err:
        return "raise", str(err)
    return "ok", [(i, ti.hex(), j, tj.hex(), bool(over)) for i, ti, j, tj, over in events]


def assert_events_match_oracle(pts2, depth, scale):
    got = crossing_outcome(_crossing_events, pts2, depth, scale)
    assert got == crossing_outcome(oracle_crossing_events, pts2, depth, scale)
    return got


@pytest.mark.parametrize("resolution", [48, 64, 96])
@pytest.mark.parametrize("chart", ["north", "south"])
@pytest.mark.parametrize("spec", LIBRARY, ids=LIBRARY_IDS)
def test_crossing_events_match_oracle_on_library(monkeypatch, spec, chart, resolution):
    curve = extract(field_library(*spec), library_grid(spec, chart, resolution))
    outcomes = []

    def checked(pts2, depth, scale):
        outcomes.append(assert_events_match_oracle(pts2, depth, scale)[0])
        return oracle_crossing_events(pts2, depth, scale)

    monkeypatch.setattr(project, "_crossing_events", checked)
    for comp in curve.components:
        project_diagram(comp)  # every direction it tries is checked
    assert outcomes.count("ok") == curve.n_components


def _on_segment(pts, m, tau, offset=0.0):
    """The point at parameter tau along segment m of the closed polyline
    pts, moved `offset` times the segment length off its line."""
    p, q = pts[m], pts[(m + 1) % len(pts)]
    d = q - p
    return p + tau * d + offset * np.array([-d[1], d[0]])


@st.composite
def polylines(draw):
    """(pts2, depth) of a closed polyline, on a coarse lattice (so exact
    depth ties, collinear overlaps and vertices on segments are common),
    from hypothesis floats, or uniform in general position.  One piece may
    be spliced in: a vertex grazing a segment, a segment crossing another's
    line just past its end (inside the tolerance, outside the segment),
    three segments through nearly one point, a repeated vertex, or a
    collinear overlap; or the depth is made flat, so every crossing ties."""
    mode = draw(st.sampled_from(["lattice", "floats", "uniform"]))
    if mode == "lattice":
        coord = st.integers(-4, 4).map(float)
    else:
        coord = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
    if mode == "uniform":
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        rows = rng.uniform(-1.0, 1.0, (draw(st.integers(3, 40)), 3))
    else:
        rows = np.array(draw(st.lists(st.tuples(coord, coord, coord), min_size=3, max_size=24)))
    pts, depth = rows[:, :2], rows[:, 2]
    m = draw(st.integers(0, len(pts) - 1))
    at = draw(st.integers(0, len(pts)))
    tau = draw(st.sampled_from([-1.5e-6, -0.9e-6, -0.5e-6, -1e-7, 0.0, 1e-7, 0.5, 1 - 1e-7,
                                1.0, 1 + 1e-7, 1 + 0.5e-6, 1 + 0.9e-6, 1 + 1.5e-6]))
    kind = draw(st.sampled_from(["none", "graze", "past_end", "triple", "repeat",
                                 "collinear", "flat"]))
    if kind == "graze":
        offset = draw(st.sampled_from([0.0, 1e-9, -1e-9, 1e-7]))
        new = [_on_segment(pts, m, tau, offset)]
    elif kind == "past_end":
        # a segment across segment m's line at parameter tau, at an angle
        angle = draw(st.floats(0.2, math.pi - 0.2))
        d = pts[(m + 1) % len(pts)] - pts[m]
        c, s = math.cos(angle), math.sin(angle)
        w = 0.5 * np.array([c * d[0] - s * d[1], s * d[0] + c * d[1]])
        v = _on_segment(pts, m, tau)
        new = [v - w, v + w]
    elif kind == "triple":
        centre = np.array([draw(coord), draw(coord)])
        theta = draw(st.floats(0.0, math.pi))
        jitter = draw(st.sampled_from([0.0, 1e-9, 1e-7, 3e-7, 1e-6, 3e-6, 1e-5]))
        new = []
        for n in range(3):
            u = np.array([math.cos(theta + n * math.pi / 3), math.sin(theta + n * math.pi / 3)])
            shift = centre + n * jitter * np.array([1.0, -0.5])
            new += [shift + u, shift - u]
    elif kind == "repeat":
        new = [pts[m]]
    elif kind == "collinear":
        new = [_on_segment(pts, m, draw(st.floats(-0.5, 1.5))),
               _on_segment(pts, m, draw(st.floats(-0.5, 1.5)))]
    else:
        new = []
    if new:
        pts = np.insert(pts, at, new, axis=0)
        depth = np.insert(depth, at, [draw(coord) for _ in new])
    if kind == "flat":
        depth = np.zeros(len(pts))
    return pts, depth


@given(polylines())
@settings(max_examples=400, deadline=None)
def test_crossing_events_match_oracle_on_polylines(polyline):
    pts2, depth = polyline
    scale = float(np.ptp(np.column_stack([pts2, depth]), axis=0).max()) or 1.0
    assert_events_match_oracle(pts2, depth, scale)


@pytest.mark.parametrize("tau", [0.5e-6, 0.9e-6])
def test_hit_just_past_two_segment_ends_is_found(tau):
    # Segment 3 would cross segment 0, the longest, at t = -tau and
    # s = 1 + tau: just past the start of one and the end of the other,
    # inside the tolerance.  Their unpadded boxes are 6 * tau apart in x;
    # nothing else comes near, so only the box padding pairs them.
    hit = np.array([-4.0 * tau, 0.0])
    diagonal = np.array([2.0, 2.0])
    pts2 = np.array([[0.0, 0.0], [4.0, 0.0], [1.0, -3.0], hit - (1 + tau) * diagonal,
                     hit - tau * diagonal, [-2.0, 2.0], [0.5, 2.0]])
    depth = np.arange(7.0)
    with pytest.raises(NonGenericProjectionError, match=r"segments 0, 3\)"):
        oracle_crossing_events(pts2, depth, 6.0)
    assert_events_match_oracle(pts2, depth, 6.0)


@pytest.mark.parametrize("jitter,triple", [(0.0, True), (1e-6, True), (1e-5, False)])
def test_triple_point_bound(jitter, triple):
    # three chords through nearly one point, shifted apart by jitter
    pts2 = []
    for n in range(3):
        u = np.array([math.cos(0.3 + n * math.pi / 3), math.sin(0.3 + n * math.pi / 3)])
        shift = n * jitter * np.array([1.0, -0.5])
        pts2 += [shift + u, shift - u]
    pts2, depth = np.array(pts2), 0.37 * np.arange(6.0)
    outcome = assert_events_match_oracle(pts2, depth, 2.0)
    assert (outcome == ("raise", "two crossings nearly coincide (triple point)")) == triple


def grazing_trefoil():
    """A trefoil polyline with a vertex added on both strands at the first
    crossing the start direction sees, so that direction is non-generic."""
    pts = torus_polyline(2, 3, 101)
    d, e1, e2 = project._frame(PROJECTION_START)
    events = _crossing_events(np.column_stack([pts @ e1, pts @ e2]), pts @ d,
                              float(np.ptp(pts, axis=0).max()))
    i, ti, j, tj, _ = events[0]
    for seg, t in sorted([(i, ti), (j, tj)], reverse=True):
        point = pts[seg] + t * (pts[(seg + 1) % len(pts)] - pts[seg])
        pts = np.insert(pts, seg + 1, point, axis=0)
    return pts


def test_retries_take_the_oracle_directions(monkeypatch):
    pts = grazing_trefoil()
    frame = project._frame
    runs = []
    for finder in (_crossing_events, oracle_crossing_events):
        directions = []

        def spy(direction):
            directions.append(np.array(direction, dtype=float))
            return frame(direction)

        monkeypatch.setattr(project, "_frame", spy)
        monkeypatch.setattr(project, "_crossing_events", finder)
        runs.append((project_diagram(pts).pd_code(), directions))
    (code, directions), (oracle_code, oracle_directions) = runs
    assert len(directions) > 1  # the start direction grazes and is retried
    assert np.array_equal(directions[0], PROJECTION_START)
    assert code == oracle_code
    assert len(directions) == len(oracle_directions)
    assert all(np.array_equal(a, b) for a, b in zip(directions, oracle_directions))
    assert jones(reduce_diagram(project_diagram(pts))) in (TREFOIL_JONES, TREFOIL_JONES.mirror())
