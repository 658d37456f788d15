"""Polyline projection, diagram reduction, and knot-type verification.

The parametric curve ((2+cos 2t) cos 3t, (2+cos 2t) sin 3t, sin 4t) is a
figure-eight knot, so its Jones polynomial is known exactly and gives an
end-to-end oracle for project + reduce + jones.
"""

import numpy as np
import pytest

from conftest import FIG8_JONES, TREFOIL_JONES, UNKNOT_JONES, torus_polyline

from knotfield.errors import CrossingCapError, KnotfieldError
from knotfield.diagram import jones, to_diagram
from knotfield.extraction import SampleGrid, extract
from knotfield.fields import field_library
from knotfield.mosaic import Mosaic, enumerate_mosaics
from knotfield.laurent import LaurentPolynomial
from knotfield.project import (
    VerificationReport,
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


@pytest.mark.parametrize("p,q", [(2, 5), (3, 4), (2, 21), (4, 7), (2, 23), (5, 6)])
def test_torus_knot_jones_closed_form(p, q):
    # Up to 24 crossings: far beyond an exhaustive sum over 2^c states.
    d = reduce_diagram(project_diagram(torus_polyline(p, q, 60 * (p + q))))
    assert len(d.crossings) == (p - 1) * q
    want = torus_jones(p, q)
    assert jones(d) in (want, want.mirror())


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


def test_reduce_preserves_jones_on_census():
    # every 4x4 mosaic diagram with crossings, spot-checked deterministically
    seen = 0
    for i, m in enumerate(enumerate_mosaics(4)):
        if i % 17:
            continue  # thin the census to keep runtime modest
        try:
            d = to_diagram(m)
        except KnotfieldError:
            continue
        if d.n_components != 1 or not d.crossings:
            continue
        assert jones(reduce_diagram(d)) == jones(d)
        seen += 1
    assert seen > 20


def test_reduce_removes_kinks(trefoil):
    # projecting a noisy trefoil polyline gains spurious R1/R2 crossings
    curve = extract(field_library("milnor", (2, 3)), SampleGrid(resolution=48))
    raw = project_diagram(curve.components[0])
    red = reduce_diagram(raw)
    assert len(red.crossings) <= len(raw.crossings)
    assert jones(red) in (TREFOIL_JONES, TREFOIL_JONES.mirror())


@pytest.mark.parametrize("name,params,resolution,radius,code", [
    ("milnor", (2, 3), 48, 1.0, "X(6,3,1,4) X(4,1,5,2) X(2,5,3,6)"),
    ("rudolph_G", (), 64, 0.5, "X(12,9,1,10) X(8,1,9,2) X(2,5,3,6) X(3,11,4,10) "
                                "X(11,5,12,4) X(7,7,8,6)"),
])
def test_projected_pd_code_pinned(name, params, resolution, radius, code):
    curve = extract(field_library(name, params),
                    SampleGrid(chart="north", resolution=resolution, radius=radius))
    assert project_diagram(curve.components[0]).pd_code() == code


def test_verify_extracted_trefoil(trefoil):
    curve = extract(field_library("milnor", (2, 3)), SampleGrid(resolution=64))
    report = verify_knot_type(curve, trefoil)
    assert report.match
    assert report.crossings_reduced <= report.crossings_raw
    assert "match" in report.to_text()


def test_verify_extracted_fig8():
    curve = extract(field_library("rudolph_G"), SampleGrid(resolution=64, radius=0.5))
    report = verify_knot_type(curve, FIG8_JONES)
    assert report.match
    # the figure-eight is amphichiral, so the mirror flag must be moot
    assert report.computed == FIG8_JONES


def test_verify_mismatch_reported(trefoil):
    report = verify_knot_type(fig8_polyline(), TREFOIL_JONES)
    assert not report.match
    assert "MISMATCH" in report.to_text()


def test_verify_rejects_links():
    curve = extract(field_library("milnor", (2, 2)), SampleGrid(resolution=48))
    with pytest.raises(KnotfieldError):
        verify_knot_type(curve, UNKNOT_JONES)


def test_crossing_cap_enforced():
    with pytest.raises(CrossingCapError):
        verify_knot_type(fig8_polyline(), FIG8_JONES, cap=2)


def test_crossing_cap_reaches_jones(monkeypatch):
    import knotfield.project
    caps = []

    def spy(diagram, **kwargs):
        caps.append(kwargs.get("cap"))
        return jones(diagram, **kwargs)

    monkeypatch.setattr(knotfield.project, "jones", spy)
    assert verify_knot_type(fig8_polyline(), FIG8_JONES, cap=30).match
    assert caps == [30]
    with pytest.raises(CrossingCapError) as exc:
        verify_knot_type(fig8_polyline(), FIG8_JONES, cap=2)
    assert caps == [30, 2] and exc.value.cap == 2


def test_expected_jones_type_rejected():
    with pytest.raises(KnotfieldError):
        verify_knot_type(fig8_polyline(), "figure-eight")


def test_report_text_mirror():
    r = VerificationReport(True, True, TREFOIL_JONES.mirror(), TREFOIL_JONES, 6, 3)
    assert r.to_text().startswith("match (mirror)")
