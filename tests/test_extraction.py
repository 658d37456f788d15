"""Nodal curve extraction in stereographic charts.

The unknot field z has an analytically known nodal set: the great circle
z = 0, which the north chart maps to the unit circle in the (y, z) chart
plane (chart x = 0).  That gives exact geometry to test against.
"""

import numpy as np
import pytest

from knotfield.errors import KnotfieldError, OpenChainError
from knotfield.extraction import (
    RESIDUAL_TOL,
    NodalCurve,
    SampleGrid,
    chart_transfer,
    closure_gaps,
    embed,
    extract,
    extract_from_samples,
    fiber_to_csv,
    hausdorff,
    refine,
    sample_fiber,
)
from knotfield.fields import field_library


def test_grid_validation():
    with pytest.raises(KnotfieldError):
        SampleGrid(chart="east")
    with pytest.raises(KnotfieldError):
        SampleGrid(resolution=8)
    with pytest.raises(KnotfieldError):
        SampleGrid(extent=-1.0)


def test_embed_lands_on_sphere():
    g = SampleGrid(radius=2.0)
    u = np.random.default_rng(0).normal(size=(50, 3))
    z, w = embed(g, u)
    assert np.allclose(np.abs(z) ** 2 + np.abs(w) ** 2, 4.0)


def test_chart_transfer_involution():
    u = np.random.default_rng(1).normal(size=(20, 3))
    assert np.allclose(chart_transfer(chart_transfer(u)), u)


def test_unknot_circle_geometry():
    f, g = field_library("unknot"), SampleGrid(resolution=48)
    curve = refine(extract(f, g), f, g)
    assert curve.n_components == 1
    pts = curve.components[0]
    # z = 0 on the unit sphere: chart x-coordinate 0, distance 1 from axis
    assert np.abs(pts[:, 0]).max() < 1e-8
    assert np.abs(np.linalg.norm(pts[:, 1:], axis=1) - 1.0).max() < 1e-8
    assert curve.residual < 1e-8
    assert closure_gaps(curve) == [0.0]
    assert curve.is_closed(0)


def test_milnor_23_single_component():
    f, g = field_library("milnor", (2, 3)), SampleGrid(resolution=64)
    curve = refine(extract(f, g), f, g)
    assert curve.n_components == 1
    assert curve.residual < 1e-8


def test_milnor_22_two_components():
    f, g = field_library("milnor", (2, 2)), SampleGrid(resolution=64)
    curve = refine(extract(f, g), f, g)
    assert curve.n_components == 2
    assert curve.residual < 1e-8


@pytest.mark.parametrize("chart", ["north", "south"])
@pytest.mark.parametrize("spec", [("unknot", ()), ("milnor", (2, 3))])
def test_refine_keeps_structure(spec, chart):
    f, g = field_library(*spec), SampleGrid(chart=chart, resolution=48)
    raw = extract(f, g)
    assert raw.residual == 0.0
    sharp = refine(raw, f, g)
    assert sharp.n_components == raw.n_components
    assert sharp.closed_flags == raw.closed_flags
    for a, b, res in zip(raw.components, sharp.components, sharp.vertex_residuals):
        assert a.shape == b.shape and res.shape == (len(a),)
        assert np.linalg.norm(a - b, axis=1).max() <= g.spacing
    assert sharp.residual < RESIDUAL_TOL


def test_resolution_stability():
    counts = {n: extract(field_library("milnor", (2, 3)),
                         SampleGrid(resolution=n)).n_components
              for n in (48, 64, 96)}
    assert set(counts.values()) == {1}


def test_two_chart_overlap():
    f = field_library("milnor", (2, 3))
    north = extract(f, SampleGrid(chart="north", resolution=64))
    south = extract(f, SampleGrid(chart="south", resolution=64))
    spacing = SampleGrid(resolution=64).spacing
    a = north.components[0][:-1]
    b_in_north = chart_transfer(south.components[0][:-1])
    # keep the part of the transferred curve inside the north sampling box
    keep = np.all(np.abs(b_in_north) <= 3.0, axis=1)
    d = np.linalg.norm(a[:, None, :] - b_in_north[keep][None, :, :], axis=-1)
    assert d.min(axis=0).max() < 2 * spacing


def test_truncated_curve_raises_or_opens():
    f = field_library("milnor", (2, 3))
    small = SampleGrid(resolution=48, extent=1.5)  # curve exits this box
    with pytest.raises(OpenChainError):
        extract(f, small)


def test_open_chains_kept_when_allowed():
    # A straight nodal line through the box: z = x + iy vanishes on the
    # vertical axis, which cannot close inside the sampling cube.
    ax = np.linspace(-1, 1, 24)
    X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij")
    values = (X + 0.03) + 1j * (Y + 0.02)
    with pytest.raises(OpenChainError):
        extract_from_samples(values, (ax, ax, ax))
    curve = extract_from_samples(values, (ax, ax, ax), allow_open=True)
    assert curve.n_components == 1
    assert not curve.is_closed(0)


def test_csv_and_obj_exports():
    curve = extract(field_library("unknot"), SampleGrid(resolution=32))
    csv_text = curve.to_csv()
    assert csv_text.splitlines()[0] == "component,index,x,y,z,abs_f"
    assert len(csv_text.splitlines()) == 1 + sum(len(c) for c in curve.components)
    obj = curve.to_obj()
    assert obj.startswith("v ") and "\nl " in obj


def test_sample_fiber_phase_band():
    f = field_library("unknot")
    g = SampleGrid(resolution=32)
    cloud = sample_fiber(f, 0.0, g, band=0.1)
    assert len(cloud) > 0
    u = cloud[:, :3]
    z, _ = embed(g, u)
    ph = np.angle(z)
    assert np.abs(ph).max() <= 0.1 + 1e-12
    text = fiber_to_csv(cloud)
    assert text.splitlines()[0] == "x,y,z,abs_f"


def test_hausdorff_basics():
    a = np.zeros((3, 3))
    b = np.ones((2, 3))
    assert hausdorff(a, a) == 0.0
    assert hausdorff(a, b) == pytest.approx(np.sqrt(3.0))
