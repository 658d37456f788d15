"""Nodal curve extraction in stereographic charts.

The unknot field z has an analytically known nodal set: the great circle
z = 0, which the north chart maps to the unit circle in the (y, z) chart
plane (chart x = 0).  That gives exact geometry to test against.
"""

import itertools
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import LIBRARY, LIBRARY_IDS, library_grid
from hypothesis import example, given, settings, strategies as st
from oracles import (
    chart_transfer,
    closure_gaps,
    oracle_candidate_cells,
    oracle_chain,
    oracle_embed,
    oracle_hausdorff,
    oracle_march,
    oracle_refine,
    oracle_sample_fiber,
)

from knotfield import extraction
from knotfield.errors import KnotfieldError, OpenChainError
from knotfield.evolution import EvolutionConfig, initial_knot_state, run
from knotfield.extraction import (
    RESIDUAL_TOL,
    _chain,
    _march,
    _scan,
    NodalCurve,
    SampleGrid,
    embed,
    extract,
    extract_from_samples,
    fiber_to_csv,
    hausdorff,
    refine,
    sample_fiber,
)
from knotfield.fields import field_library

def samples(f, grid):
    """Values on grid's undilated lattice, as `extract` samples them first."""
    ax = grid.axes()
    z, w = embed(grid, *np.meshgrid(*ax, indexing="ij"))
    return ax, f(z, w)


def recorded(fn, *args, **kwargs):
    """fn's result and the text of every warning it emits, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args, **kwargs)
    return out, [str(w.message) for w in caught]


def assert_march_matches_oracle(axes, values, min_amp=0.0):
    assert np.array_equal(_scan(values, min_amp)[0],
                          oracle_candidate_cells(values, min_amp))
    (segments, points), warned = recorded(_march, axes, values, min_amp=min_amp)
    (oracle_segments, face_points), oracle_warned = recorded(
        oracle_march, axes, values, min_amp=min_amp)
    assert warned == oracle_warned
    # Production numbers the faces with a zero in sorted-vertex-id order,
    # the order of the oracle's keys under sorted(key, key=sorted).
    keys = sorted((k for k, pt in face_points.items() if pt is not None), key=sorted)
    assert np.array_equal(points, np.array([face_points[k] for k in keys]).reshape(-1, 3))
    index = {k: i for i, k in enumerate(keys)}
    assert len(segments) == len(oracle_segments)
    assert ({frozenset(s) for s in segments.tolist()}
            == {frozenset(index[k] for k in s) for s in oracle_segments})
    return segments, points


def test_grid_validation():
    with pytest.raises(KnotfieldError):
        SampleGrid(chart="east")
    with pytest.raises(KnotfieldError):
        SampleGrid(resolution=8)
    with pytest.raises(KnotfieldError):
        SampleGrid(extent=-1.0)
    with pytest.raises(KnotfieldError):
        SampleGrid(chart="box")  # box data goes to extract_from_samples
    for bad in (float("nan"), float("inf")):
        with pytest.raises(KnotfieldError):
            SampleGrid(extent=bad)
        with pytest.raises(KnotfieldError):
            SampleGrid(radius=bad)


def test_embed_lands_on_sphere():
    g = SampleGrid(radius=2.0)
    u = np.random.default_rng(0).normal(size=(50, 3))
    z, w = embed(g, *u.T)
    assert np.allclose(np.abs(z) ** 2 + np.abs(w) ** 2, 4.0)


def assert_same_bits(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.shape == b.shape
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("radius", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("chart", ["north", "south"])
def test_embed_bit_identical_to_oracle(chart, radius):
    # Odd resolutions put 0 and +-1 on the axes, so s = 2 exactly at six
    # lattice points, where the south chart's x0 is -0.
    for resolution in (48, 49, 96, 97, 136):
        grid = SampleGrid(chart=chart, resolution=resolution, radius=radius)
        ax = grid.axes()
        lattice = (ax[0][:, None, None], ax[1][None, :, None], ax[2][None, None, :])
        assert_same_bits(embed(grid, *lattice), oracle_embed(grid, *lattice))
    rng = np.random.default_rng(17)
    pts = 10.0 ** rng.uniform(-3.0, 3.0, size=(5000, 3))
    pts *= rng.choice([-1.0, 1.0], size=pts.shape)
    signed = np.array(list(itertools.product([0.0, -0.0, 1.0, -1.0, 0.6, -0.8], repeat=3)))
    for p in (pts, signed):
        assert_same_bits(embed(grid, *p.T), oracle_embed(grid, *p.T))


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


def test_extract_gives_up_when_every_dilation_warns(monkeypatch):
    lattices = []

    def warning_march(axes, values, min_amp=0.0):
        lattices.append(axes[0][0])
        warnings.warn("degenerate tetrahedron", UserWarning)

    monkeypatch.setattr(extraction, "_march", warning_march)
    with pytest.raises(OpenChainError) as exc:
        extract(field_library("unknot"), SampleGrid(resolution=16))
    assert str(exc.value) == "degenerate sampling at every retry dilation: degenerate tetrahedron"
    assert exc.value.endpoints == []
    assert len(set(lattices)) == len(extraction._RETRY_DILATIONS)


def test_field_warning_reaches_the_caller_and_is_sampled_once(monkeypatch):
    # only `_march`'s degenerate-tetrahedron warning makes `extract` sample again
    trefoil, grid = field_library("milnor", (2, 3)), SampleGrid(resolution=32)
    attempts = []
    core = extraction.extract_from_samples

    def counted(values, axes, **kwargs):
        attempts.append(axes[0][-1])
        return core(values, axes, **kwargs)

    def remarking(z, w):
        warnings.warn("a remark of the field's own", UserWarning)
        return trefoil(z, w)

    monkeypatch.setattr(extraction, "extract_from_samples", counted)
    with pytest.warns(UserWarning, match="a remark of the field's own"):
        curve = extract(remarking, grid)
    assert attempts == [3.0]
    want = extract(trefoil, grid)
    assert curve.closed_flags == want.closed_flags == (True,)
    assert np.array_equal(curve.components[0], want.components[0])
    # a caller that makes the field's warning an error gets it, from the first lattice
    attempts.clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        with pytest.raises(UserWarning, match="a remark of the field's own"):
            extract(remarking, grid)
    assert attempts == [3.0]


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


def test_nodal_curve_alone_closes_its_components():
    loop = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    path = np.array([[0.0, 0.0, 2.0], [0.0, 0.0, 3.0]])
    curve = NodalCurve._closing([loop, path], [True, False], "box",
                                [np.array([1e-9, 3e-9, 2e-9]), np.array([0.0, 4e-9])])
    assert np.array_equal(curve.components[0], np.vstack([loop, loop[:1]]))
    assert np.array_equal(curve.components[1], path)
    assert [r.tolist() for r in curve.vertex_residuals] == [[1e-9, 3e-9, 2e-9, 1e-9], [0.0, 4e-9]]
    assert curve.residual == 4e-9 and curve.closed_flags == (True, False)
    assert np.array_equal(curve.vertices(0), loop) and np.array_equal(curve.vertices(1), path)
    assert curve.to_obj() == "v 0 0 0\nv 1 0 0\nv 0 1 0\nl 1 2 3 1\nv 0 0 2\nv 0 0 3\nl 4 5\n"
    unrefined = NodalCurve._closing([loop, path], [True, False], "box")
    assert [r.tolist() for r in unrefined.vertex_residuals] == [[0.0] * 4, [0.0] * 2]
    assert unrefined.residual == 0.0


def test_sample_fiber_phase_band():
    f = field_library("unknot")
    g = SampleGrid(resolution=32)
    cloud = sample_fiber(f, 0.0, g, band=0.1)
    assert len(cloud) > 0
    u = cloud[:, :3]
    z, _ = embed(g, *u.T)
    ph = np.angle(z)
    assert np.abs(ph).max() <= 0.1 + 1e-12
    text = fiber_to_csv(cloud)
    assert text.splitlines()[0] == "x,y,z,abs_f"


@pytest.mark.parametrize("resolution", [32, 48])
@pytest.mark.parametrize("chart", ["north", "south"])
@pytest.mark.parametrize("spec", [("unknot", ()), ("milnor", (2, 3))], ids=["unknot", "milnor23"])
def test_sample_fiber_matches_full_cube_oracle(spec, chart, resolution):
    f, grid = field_library(*spec), SampleGrid(chart=chart, resolution=resolution)
    sizes = []
    for theta in (0.0, 0.7, -2.5):
        cloud = sample_fiber(f, theta, grid)
        assert np.array_equal(cloud, oracle_sample_fiber(f, theta, grid))
        sizes.append(len(cloud))
    assert max(sizes) > 0


def test_sample_lattice_is_the_extraction_lattice():
    # slab-wise sampling equals one evaluation on the full cube of chart points
    f, grid = field_library("milnor", (2, 3)), SampleGrid(chart="south", resolution=136)
    ax = grid.axes()
    values = extraction.sample_lattice(f, grid, ax)
    ref_ax, ref = samples(f, grid)
    assert all(np.array_equal(a, b) for a, b in zip(ax, ref_ax))
    assert np.array_equal(values, ref)


@pytest.mark.parametrize("resolution", [97, 101, 136])
@pytest.mark.parametrize("chart", ["north", "south"])
@pytest.mark.parametrize("spec", LIBRARY, ids=LIBRARY_IDS)
def test_sample_chart_matches_oracle_across_slab_boundaries(spec, chart, resolution):
    # slabs of 3 planes leave a short last slab at 97 and 101; 136 takes
    # one plane per slab
    f, grid = field_library(*spec), library_grid(spec, chart, resolution)
    values = extraction.sample_lattice(f, grid, grid.axes())
    assert np.array_equal(values.view(np.uint64), samples(f, grid)[1].view(np.uint64))


@pytest.mark.parametrize("chart", ["north", "south"])
def test_sample_lattice_matches_oracle_in_one_plane_slabs(chart, monkeypatch):
    # a budget below one plane still samples a plane per slab
    monkeypatch.setattr(extraction, "SAMPLE_SLAB", 100)
    f, grid = field_library("rudolph_G"), SampleGrid(chart=chart, resolution=33, radius=0.5)
    values = extraction.sample_lattice(f, grid, grid.axes())
    assert np.array_equal(values.view(np.uint64), samples(f, grid)[1].view(np.uint64))


def test_sample_lattice_peak_memory_is_one_slab(monkeypatch):
    # Beyond the n^3 complex output, only one slab of 2^15 points (two
    # planes at 128) is live: about 4 MiB for rudolph_G, eight complex
    # temporaries of 512 KiB; the whole cube as one slab peaks 224 MiB
    # above the output.
    f, grid = field_library("rudolph_G"), SampleGrid(resolution=128, radius=0.5)
    output = 16 * grid.resolution ** 3

    def peak():
        tracemalloc.start()
        try:
            extraction.sample_lattice(f, grid, grid.axes())
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak() <= output + 12 * 2 ** 20
    monkeypatch.setattr(extraction, "SAMPLE_SLAB", grid.resolution ** 3)
    assert peak() > output + 12 * 2 ** 20  # the bound sees whole-cube temporaries


def test_sample_fiber_peak_memory_is_one_slab():
    # Each slab is filtered as it is sampled, so beside the kept points
    # (41,880 at 128, 1.3 MiB) only one slab's temporaries are live: about
    # 5 MiB in all.  Sampling the whole cube and taking its |f|, phase
    # and mask arrays peaks at 128 MiB, far above the bound.
    f, grid = field_library("milnor", (2, 3)), SampleGrid(resolution=128)
    tracemalloc.start()
    try:
        sample_fiber(f, 0.0, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def assert_stream_matches_array(axes, values, slabs, min_amp=0.0):
    """Extraction from the slab stream `slabs()` equals extraction from the
    array `values` and the oracles."""
    segments, points = assert_march_matches_oracle(axes, values, min_amp)
    assert np.array_equal(_scan(slabs(), min_amp)[0], _scan(values, min_amp)[0])
    (got_segments, got_points), warned = recorded(_march, axes, slabs(), min_amp=min_amp)
    assert warned == recorded(_march, axes, values, min_amp=min_amp)[1]
    assert np.array_equal(got_segments, segments) and np.array_equal(got_points, points)
    assert from_samples_outcome(slabs(), axes, min_amp) == from_samples_outcome(
        values, axes, min_amp)


def from_samples_outcome(values, axes, min_amp):
    """The curve `extract_from_samples` finds, as lists, or its error text."""
    try:
        curve, warned = recorded(extract_from_samples, values, axes, min_amp=min_amp,
                                 allow_open=True)
    except OpenChainError as exc:
        return str(exc)
    return [c.tolist() for c in curve.components], curve.closed_flags, warned


def chart_stream(spec, chart, resolution):
    f, grid = field_library(*spec), library_grid(spec, chart, resolution)
    ax = grid.axes()
    return ax, extraction.sample_lattice(f, grid, ax), lambda: extraction.lattice_slabs(f, grid, ax)


@pytest.mark.parametrize("resolution", [33, 50, 65, 97])
@pytest.mark.parametrize("chart", ["north", "south"])
@pytest.mark.parametrize("spec", [("unknot", ()), ("milnor", (2, 3)), ("rudolph_G", ())],
                         ids=["unknot", "milnor23", "rudolph_G"])
def test_streamed_extraction_matches_array_and_oracle(spec, chart, resolution):
    # the array and the stream are read in slabs of 30, 13, 7 and 3 planes:
    # each slab's last plane is carried across every slab edge, and every
    # resolution ends in a short slab
    assert_stream_matches_array(*chart_stream(spec, chart, resolution))


@pytest.mark.parametrize("planes", [1, 5])
@pytest.mark.parametrize("chart", ["north", "south"])
def test_streamed_extraction_matches_in_slabs_across_blocks(chart, planes, monkeypatch):
    # one plane per slab, and 5-plane slabs that end in a short one at 50
    # and 65, for the array and the stream alike
    for resolution in (50, 65):
        monkeypatch.setattr(extraction, "SAMPLE_SLAB", 100 if planes == 1 else 5 * resolution ** 2)
        assert_stream_matches_array(*chart_stream(("milnor", (2, 3)), chart, resolution))


def test_streamed_extraction_matches_on_evolved_box_with_floor():
    cfg = EvolutionConfig(resolution=64, steps=20)
    history = run(initial_knot_state(field_library("milnor", (2, 3)), cfg), cfg,
                  snapshot_every=10)
    ax = cfg.axes()
    keep = np.abs(ax[0]) <= 5.0  # 40 planes: the array is read in two slabs of 20
    sub_ax = tuple(a[keep] for a in ax)
    for st in history[1:]:
        sub = st.values[np.ix_(keep, keep, keep)]
        for floor, planes in itertools.product((1e-3, 0.1), (1, 7)):
            min_amp = floor * float(np.abs(st.values).max())
            assert_stream_matches_array(
                sub_ax, sub, lambda: ((lo, sub[lo:lo + planes]) for lo in range(0, len(sub), planes)),
                min_amp)


def test_extract_peak_memory_is_one_cell_block(monkeypatch):
    # The scan reads each sampled slab of 2^15 points where it lies, beside
    # one code array of a slab plus a plane and one carried value plane:
    # about 3.6 MiB at 128.  The whole 32 MiB cube sampled as one slab
    # exceeds the bound.
    f, grid = field_library("milnor", (2, 3)), SampleGrid(resolution=128)

    def peak():
        tracemalloc.start()
        try:
            assert extract(f, grid).n_components == 1
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak() < 6 * 2 ** 20
    monkeypatch.setattr(extraction, "SAMPLE_SLAB", grid.resolution ** 3)
    assert peak() > 6 * 2 ** 20  # the bound sees a whole cube


def test_hausdorff_basics():
    a = np.zeros((3, 3))
    b = np.ones((2, 3))
    assert hausdorff(a, a) == 0.0
    assert hausdorff(a, b) == pytest.approx(np.sqrt(3.0))
    empty = np.zeros((0, 3))
    assert hausdorff(a, empty) == hausdorff(empty, b) == float("inf")
    assert hausdorff(empty, empty) == 0.0


@given(st.integers(1, 300), st.integers(1, 300), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_hausdorff_matches_oracle_bit_for_bit(m, k, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, 3)) * rng.uniform(1e-3, 1e3)
    b = rng.normal(size=(k, 3)) * rng.uniform(1e-3, 1e3) + rng.normal(size=3)
    with pytest.MonkeyPatch.context() as mp:
        # A block of 7 pairs splits `a` into blocks of one or a few rows.
        mp.setattr(extraction, "_HAUSDORFF_PAIRS", 7)
        blocked = hausdorff(a, b)
    assert hausdorff(a, b) == blocked == oracle_hausdorff(a, b)
    assert hausdorff(b, a) == oracle_hausdorff(b, a)


def test_hausdorff_peak_memory_is_row_blocks(monkeypatch):
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(1000, 3)), rng.normal(size=(1000, 3))

    def peak():
        tracemalloc.start()
        try:
            hausdorff(a, b)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak() < 4 * 2 ** 20
    monkeypatch.setattr(extraction, "_HAUSDORFF_PAIRS", len(a) * len(b))
    assert peak() > 4 * 2 ** 20  # the bound sees a whole-matrix temporary


@pytest.mark.parametrize("chart", ["north", "south"])
@pytest.mark.parametrize("resolution", [32, 48, 64])
@pytest.mark.parametrize("spec", LIBRARY, ids=LIBRARY_IDS)
def test_march_matches_oracle(spec, resolution, chart):
    grid = library_grid(spec, chart, resolution)
    assert_march_matches_oracle(*samples(field_library(*spec), grid))


def test_march_matches_oracle_past_packed_key_range():
    # (a*N + b)*N + c with N = n^3 vertex ids overflows int64 above n = 128
    grid = SampleGrid(resolution=136)
    segments, points = assert_march_matches_oracle(*samples(field_library("unknot"), grid))
    assert len(segments) > 0


def test_march_matches_oracle_on_evolved_box():
    cfg = EvolutionConfig(resolution=64, steps=20)
    history = run(initial_knot_state(field_library("milnor", (2, 3)), cfg), cfg,
                  snapshot_every=10)
    ax = cfg.axes()
    keep = np.abs(ax[0]) <= cfg.box / 4.0  # the central subcube track_nodal reads
    sub_ax = tuple(a[keep] for a in ax)
    open_components = 0
    for st in history:
        sub = st.values[np.ix_(keep, keep, keep)]
        for floor in (1e-3, 0.1):  # track_nodal's default, and one that cuts filaments
            min_amp = floor * float(np.abs(st.values).max())
            _, points = assert_march_matches_oracle(sub_ax, sub, min_amp=min_amp)
            curve = extract_from_samples(sub, sub_ax, min_amp=min_amp, allow_open=True)
            open_components += sum(not curve.is_closed(i) for i in range(curve.n_components))
            for comp in curve.components:
                assert (comp[:, None, :] == points[None, :, :]).all(axis=2).any(axis=1).all()
    assert open_components > 0


def test_degenerate_tetrahedron_warns_and_extract_dilates(monkeypatch):
    f, grid = field_library("milnor", (2, 2)), SampleGrid(resolution=64)
    _, warned = recorded(_march, *samples(f, grid))
    assert warned[0] == "degenerate tetrahedron at cell (20,20,20): 3 face zeros"
    calls = []
    core = extraction.extract_from_samples

    def counted(values, axes, **kwargs):
        calls.append(axes[0][-1])
        return core(values, axes, **kwargs)

    monkeypatch.setattr(extraction, "extract_from_samples", counted)
    curve = extract(f, grid)
    dilated = 3.0 * 1.0000701  # settled at the second lattice: dilated, then shifted
    assert calls == [3.0, dilated + 0.382 * (2.0 * dilated / 63)]
    assert curve.n_components == 2


@pytest.mark.parametrize("chart", ["north", "south"])
@pytest.mark.parametrize("spec", LIBRARY, ids=LIBRARY_IDS)
def test_refine_matches_oracle(spec, chart):
    f, grid = field_library(*spec), library_grid(spec, chart, 48)
    raw = extract(f, grid)
    sharp, oracle = refine(raw, f, grid), oracle_refine(raw, f, grid)
    assert sharp.n_components == oracle.n_components
    assert sharp.closed_flags == oracle.closed_flags
    for a, b in zip(sharp.components, oracle.components):
        assert a.shape == b.shape
        assert np.abs(a - b).max() <= 1e-12
    assert sharp.residual <= RESIDUAL_TOL and oracle.residual <= RESIDUAL_TOL


@pytest.mark.parametrize("shift", [(0.3, 0.0, 0.0), (0.1, -0.2, 0.15)])
@pytest.mark.parametrize("spec", [("milnor", (3, 4)), ("rudolph_G", ())],
                         ids=["milnor34", "rudolphG"])
def test_refine_matches_oracle_off_the_zero_set(spec, shift):
    # Shifts of 0.27-0.3 exceed the half-spacing step clamp (0.097 at
    # resolution 32), so clamped steps and deep backtracking occur.
    f, grid = field_library(*spec), library_grid(spec, "north", 32)
    raw = extract(f, grid)
    moved = NodalCurve(tuple(c + np.array(shift) for c in raw.components), raw.chart, 0.0,
                       raw.vertex_residuals, raw.closed_flags)
    sharp, warned = recorded(refine, moved, f, grid)
    oracle, oracle_warned = recorded(oracle_refine, moved, f, grid)
    assert warned == oracle_warned
    for a, b in zip(sharp.components, oracle.components):
        assert np.abs(a - b).max() <= 1e-12


def test_refine_open_component_matches_oracle():
    # an arc of the trefoil moved off the zero set, next to the closed curve:
    # the arc's end vertices take one-sided tangents and stay open
    f, grid = field_library("milnor", (2, 3)), library_grid(("milnor", (2, 3)), "north", 32)
    loop = extract(f, grid).components[0]
    arc = loop[: len(loop) // 2] + np.array([0.02, -0.01, 0.0])
    curve = NodalCurve((loop, arc), "north", 0.0, (np.zeros(len(loop)), np.zeros(len(arc))),
                       (True, False))
    sharp, oracle = refine(curve, f, grid), oracle_refine(curve, f, grid)
    assert sharp.closed_flags == oracle.closed_flags == (True, False)
    assert [len(c) for c in sharp.components] == [len(loop), len(arc)]
    for a, b in zip(sharp.components, oracle.components, strict=True):
        assert np.abs(a - b).max() <= 1e-12
    assert not np.array_equal(sharp.components[1][-1], sharp.components[1][0])
    assert sharp.residual <= RESIDUAL_TOL and oracle.residual <= RESIDUAL_TOL


def test_refine_empty_curve():
    f, grid = field_library("unknot"), SampleGrid(chart="south", resolution=16)
    empty = NodalCurve((), "south", 0.0, (), ())
    sharp = refine(empty, f, grid)
    assert (sharp.components, sharp.chart, sharp.residual, sharp.vertex_residuals,
            sharp.closed_flags) == ((), "south", 0.0, (), ())
    assert sharp.to_csv() == oracle_refine(empty, f, grid).to_csv()


def test_refine_warns_like_oracle_on_degenerate_jacobian():
    # f is real, so the imaginary row of the Jacobian vanishes everywhere
    def f(z, w):
        return z * np.conjugate(z) - 0.25 + 0 * w

    grid = SampleGrid(resolution=32)
    square = np.array([[0.3, 0.1, 0.2], [0.1, 0.4, 0.0], [-0.2, 0.1, 0.3],
                       [0.0, -0.3, 0.1], [0.3, 0.1, 0.2]])
    curve = NodalCurve((square,), "north", 0.0, (np.zeros(5),), (True,))
    sharp, warned = recorded(refine, curve, f, grid)
    oracle, oracle_warned = recorded(oracle_refine, curve, f, grid)
    assert warned == oracle_warned == [
        f"near-degenerate Jacobian at {p.tolist()}: transversality may fail here"
        for p in square[:-1]]
    assert np.array_equal(sharp.components[0], square)
    assert np.allclose(sharp.vertex_residuals[0], oracle.vertex_residuals[0], rtol=1e-12)


_SPECIAL = (0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan, 1e-300, -1e-300, 0.25, -0.5)


@st.composite
def special_samples(draw, values=_SPECIAL):
    """A small complex lattice whose parts are drawn from values."""
    shape = tuple(draw(st.integers(2, 6)) for _ in range(3))
    size = 2 * math.prod(shape)
    parts = draw(st.lists(st.sampled_from(values), min_size=size, max_size=size))
    return np.array(parts).view(complex).reshape(shape)


# One cell: Re straddles zero along corners (0, 0, *) and Im along
# (1, 1, *), but the NaN Re at (1, 0, 0) rules it out.  With that NaN
# read as 1 and Im held at 1, only Re straddles, which rules it out too.
_CELL = np.array([[[1 + 1j, -1 + 1j], [-1 + 1j, 1 + 1j]],
                  [[math.nan + 1j, 1 - 1j], [1 + 1j, 1 - 1j]]])
_RE_ONLY = np.nan_to_num(_CELL.real, nan=1.0) + 1j
# Two cells that straddle zero in both parts but for the one NaN of the
# middle plane: read in 1-plane slabs, its NaN flag is carried across
# both slab boundaries, into a slab that holds no NaN of its own.
_STRADDLES = [[1 + 1j, -1 - 1j], [-1 + 1j, 1 - 1j]]
_MIDDLE_NAN = np.array([_STRADDLES, [[math.nan + 1j, 1 + 1j], [1 + 1j, 1 + 1j]], _STRADDLES])


@example(values=_CELL, min_amp=0.0, slab=1)
@example(values=_RE_ONLY, min_amp=0.5, slab=2)
@example(values=_MIDDLE_NAN, min_amp=0.0, slab=1)
@settings(max_examples=300, deadline=None)
@given(values=special_samples(), min_amp=st.sampled_from([0.0, 0.5, 1.0]),
       slab=st.integers(1, 5))
def test_candidate_cells_special_values(values, min_amp, slab):
    # slabs of 1-5 planes split every lattice; a transposed view and the
    # real part (a strided float array) go through the same conversion
    with pytest.MonkeyPatch.context() as mp:
        for arr in (values, values.transpose(2, 0, 1), values.real):
            mp.setattr(extraction, "SAMPLE_SLAB", slab * arr.shape[1] * arr.shape[2])
            assert np.array_equal(_scan(arr, min_amp)[0],
                                  oracle_candidate_cells(arr, min_amp))


# Exact zeros put face zeros on corners and edges, so tetrahedra with three
# or four face zeros, and faces with no solvable zero, are common here
_MARCH_PARTS = (0.0, -0.0, 1.0, -1.0, 0.5, -2.0)


@example(values=np.zeros((2, 2, 2), dtype=complex), min_amp=0.0)
@settings(max_examples=300, deadline=None)
@given(values=special_samples(_MARCH_PARTS), min_amp=st.sampled_from([0.0, 0.5]))
def test_march_matches_oracle_on_lattices_with_exact_zeros(values, min_amp):
    axes = tuple(np.linspace(-1.0, 1.0, n) for n in values.shape)
    assert_march_matches_oracle(axes, values, min_amp)


def chain_outcome(chain, segments, points, allow_open):
    """chain's loops and paths, or its error's type, message and points."""
    try:
        return chain(segments, points, allow_open=allow_open)
    except OpenChainError as exc:
        return type(exc), str(exc), exc.endpoints


def assert_chain_matches_oracle(segments, points, allow_open=False):
    got = chain_outcome(_chain, segments, points, allow_open)
    assert got == chain_outcome(oracle_chain, segments, points, allow_open)
    return got


@pytest.mark.parametrize("chart", ["north", "south"])
@pytest.mark.parametrize("spec", LIBRARY, ids=LIBRARY_IDS)
def test_chain_matches_oracle(spec, chart):
    for resolution in (32, 64, 96):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # degenerate tetrahedra
            segments, points = _march(*samples(field_library(*spec),
                                                library_grid(spec, chart, resolution)))
        assert len(segments) > 0
        # the library segments, each also given twice, once reversed
        for segs in (segments, np.vstack([segments, segments[::-1, ::-1]])):
            for allow_open in (False, True):
                assert_chain_matches_oracle(segs, points, allow_open)
        # cut loops: open paths, or dangling endpoints when they must close
        cut = segments[np.arange(len(segments)) % 7 != 3]
        loops, paths = assert_chain_matches_oracle(cut, points, allow_open=True)
        assert paths
        error, message, _ = assert_chain_matches_oracle(cut, points)
        assert error is OpenChainError and "dangling" in message
        # a chord between two faces that are not neighbours makes two junctions
        chord = np.vstack([segments, [[segments[0, 0], segments[len(segments) // 2, 1]]]])
        error, message, _ = assert_chain_matches_oracle(chord, points, allow_open=True)
        assert error is OpenChainError and "junction" in message


def random_chain_graph(rng, n_cycles, n_paths):
    """Segments of disjoint cycles and paths on sparse face ids, in shuffled
    order and orientation, some given twice, and points indexed by face."""
    sizes = ([int(rng.integers(3, 12)) for _ in range(n_cycles)]
             + [int(rng.integers(1, 12)) for _ in range(n_paths)])
    h = 4 * sum(sizes) + 1
    ids = rng.permutation(h)[:sum(sizes)].tolist()
    segments, at = [], 0
    for c, k in enumerate(sizes):
        v, at = ids[at:at + k], at + k
        segments += [(v[i], v[(i + 1) % k]) for i in range(k if c < n_cycles else k - 1)]
    segments = np.array(segments, dtype=int).reshape(-1, 2)
    segments = np.vstack([segments, segments[rng.random(len(segments)) < 0.1]])
    flip = rng.random(len(segments)) < 0.5
    segments[flip] = segments[flip, ::-1]
    return segments[rng.permutation(len(segments))], rng.normal(size=(h, 3))


def test_chain_matches_oracle_on_random_graphs():
    rng = np.random.default_rng(24)
    seen = set()
    for _ in range(300):
        segments, points = random_chain_graph(rng, int(rng.integers(0, 5)),
                                              int(rng.integers(0, 4)))
        for allow_open in (False, True):
            got = assert_chain_matches_oracle(segments, points, allow_open)
            seen.add("error" if got[0] is OpenChainError else "chains")
            if len(segments) > 1:  # a chord from one segment's end to another's
                chord = [[segments[0, 0], segments[-1, 1]]]
                got = assert_chain_matches_oracle(np.vstack([segments, chord]), points,
                                                  allow_open)
                if got[0] is OpenChainError:
                    seen.add("junction" if "junction" in got[1] else "dangling")
    assert seen == {"chains", "error", "junction", "dangling"}


def test_lattice_size_limit_at_the_address_space():
    # The largest n with n^3 complex (16-byte) samples addressable is accepted
    # by both lattices; one more is one error.  Neither allocates anything.
    n = round((sys.maxsize // 16) ** (1 / 3))
    n -= (n ** 3 * 16 > sys.maxsize)
    assert n ** 3 * 16 <= sys.maxsize < (n + 1) ** 3 * 16
    SampleGrid(resolution=n)
    with pytest.raises(KnotfieldError, match="too large"):
        SampleGrid(resolution=n + 1)
    EvolutionConfig(resolution=2 ** 19)
    with pytest.raises(KnotfieldError, match="too large"):
        EvolutionConfig(resolution=2 ** 20)
