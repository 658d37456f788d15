"""Spectral Schrodinger propagation and nodal curve tracking.

The free propagator is exact for lattice plane waves, which gives
machine-precision oracles: a plane wave with wavevector k picks up the
phase exp(-i |k|^2 t / 2) and nothing else.
"""

import tracemalloc

import numpy as np
import pytest
from oracles import (density_center, gaussian_packet, oracle_axis_matrix, oracle_axis_products,
                     oracle_initial_knot_state, oracle_run, oracle_step, plane_wave)

from knotfield import evolution
from knotfield.cli import main
from knotfield.errors import KnotfieldError
from knotfield.evolution import (
    EvolutionConfig,
    _match,
    FieldState,
    gaussian_state,
    initial_knot_state,
    run,
    snapshots,
    step,
    track_nodal,
)
from knotfield.extraction import NodalCurve
from knotfield.fields import field_library

SMALL = EvolutionConfig(box=8.0, resolution=32, dt=1e-3, steps=10)


def test_config_validation():
    with pytest.raises(KnotfieldError):
        EvolutionConfig(hamiltonian="coulomb")
    with pytest.raises(KnotfieldError):
        EvolutionConfig(dt=0.0)
    with pytest.raises(KnotfieldError):
        EvolutionConfig(resolution=48)  # not a power of two
    with pytest.raises(KnotfieldError):
        EvolutionConfig(omega=(1.0, -1.0, 1.0))
    for bad in (float("nan"), float("inf")):
        for kwargs in ({"box": bad}, {"dt": bad}, {"omega": (1.0, bad, 1.0)}):
            with pytest.raises(KnotfieldError):
                EvolutionConfig(**kwargs)
    # three frequencies, as any sequence of numbers, and no other form
    assert EvolutionConfig(omega=[2, 1, 0.5]).omega == (2.0, 1.0, 0.5)
    for bad in (2.0, (1.0, 1.0), (1.0,) * 4, "abc", None, (1j, 1.0, 1.0)):
        with pytest.raises(KnotfieldError, match="omega must be three"):
            EvolutionConfig(omega=bad)


def test_axes_are_cell_centered():
    ax = SMALL.axes()[0]
    assert len(ax) == 32
    assert 0.0 not in ax
    assert np.allclose(ax + ax[::-1], 0.0)
    assert np.allclose(np.diff(ax), SMALL.spacing)


def test_state_validation():
    with pytest.raises(KnotfieldError):
        FieldState(np.zeros((4, 4)))
    with pytest.raises(KnotfieldError):
        FieldState(np.full((4, 4, 4), np.nan))


def test_propagated_state_is_checked_once(monkeypatch):
    # _advance checks the cube it builds and hands it to the state with no
    # second pass; a state built anywhere else is still checked
    checked = []
    post_init = FieldState.__post_init__
    monkeypatch.setattr(FieldState, "__post_init__", lambda s: checked.append(s) or post_init(s))
    cfg = EvolutionConfig(hamiltonian="harmonic", resolution=16)
    psi = gaussian_state(cfg)
    checked.clear()
    got = step(psi, cfg, cfg.dt)
    assert checked == []
    want = FieldState(got.values, got.time, got.norm0)
    assert len(checked) == 1 and checked[0] is want
    assert want.values is got.values and got.values.flags.c_contiguous
    assert (got.time, got.norm0, got.norm()) == (cfg.dt, psi.norm0, want.norm())
    with pytest.raises(KnotfieldError, match=r"^field values must be finite$"):
        FieldState(np.full((16, 16, 16), np.inf))
    with pytest.raises(KnotfieldError, match=r"^numeric overflow during step at t = 0\.0$"):
        step(psi, cfg, 1e308)  # the phases overflow
    # every slice is checked: doubling only the last slice's 1e308 overflows
    values = np.zeros((16, 16, 16), dtype=complex)
    values[-1] = 1e308
    eye = np.eye(16, dtype=complex)
    with pytest.raises(KnotfieldError, match=r"^numeric overflow during step at t = 0\.0$"):
        evolution._advance(FieldState(values, 0.0, 1.0), cfg, 1, cfg.dt, (eye, eye, 2 * eye))


def test_plane_wave_exact_phase():
    # free evolution multiplies exp(i k.x) by exp(-i |k|^2 t / 2) exactly
    cfg = SMALL
    psi = plane_wave(cfg, (2, 1, 0))
    out = psi
    for _ in range(cfg.steps):
        out = step(out, cfg, cfg.dt)
    kf = 2 * np.pi / cfg.box
    k2 = kf * kf * (4 + 1)
    t = cfg.steps * cfg.dt
    expect = psi.values * np.exp(-0.5j * k2 * t)
    assert np.abs(out.values - expect).max() < 1e-12


def test_free_steps_compose_exactly():
    cfg = SMALL
    psi = gaussian_packet(cfg, width=1.2, momentum=(1.0, 0.0, 0.0))
    one = step(psi, cfg, dt=cfg.dt)
    two = step(step(psi, cfg, dt=cfg.dt / 2), cfg, dt=cfg.dt / 2)
    assert np.abs(one.values - two.values).max() < 1e-13


@pytest.mark.parametrize("ham", ["free", "harmonic"])
def test_norm_drift_under_100_steps(ham):
    cfg = EvolutionConfig(hamiltonian=ham, box=8.0, resolution=32,
                          dt=1e-3, steps=100)
    psi = gaussian_state(cfg, width=1.0)
    final = run(psi, cfg)[-1]
    assert final.norm_drift() < 1e-10


def test_harmonic_ground_state_stationary():
    # omega = 1 ground state exp(-r^2/2): density must not move
    cfg = EvolutionConfig(hamiltonian="harmonic", box=12.0, resolution=32,
                          dt=1e-3, steps=50)
    psi = gaussian_state(cfg, width=1.0)
    final = run(psi, cfg)[-1]
    rho0 = np.abs(psi.values) ** 2
    rho1 = np.abs(final.values) ** 2
    assert np.abs(rho1 - rho0).max() / rho0.max() < 1e-6


def test_harmonic_strang_is_second_order():
    # Richardson: halving dt divides the splitting error by about 4
    base = dict(hamiltonian="harmonic", box=8.0, resolution=32)
    psi = gaussian_packet(EvolutionConfig(**base), width=1.0,
                          center=(0.5, 0.0, 0.0))

    def err(dt, steps):
        cfg = EvolutionConfig(dt=dt, steps=steps, **base)
        coarse = run(psi, cfg)[-1]
        fine = run(psi, EvolutionConfig(dt=dt / 8, steps=8 * steps, **base))[-1]
        return np.abs(coarse.values - fine.values).max()

    ratio = err(4e-2, 8) / err(2e-2, 16)
    assert 3.0 < ratio < 5.0


def test_time_reversal():
    cfg = EvolutionConfig(hamiltonian="harmonic", box=8.0, resolution=32,
                          dt=1e-3, steps=20)
    psi = gaussian_packet(cfg, width=1.0, momentum=(0.5, 0.0, 0.0))
    fwd = run(psi, cfg)[-1]
    back = fwd
    for _ in range(cfg.steps):
        back = step(back, cfg, dt=-cfg.dt)
    assert np.abs(back.values - psi.values).max() < 1e-10
    assert back.time == pytest.approx(0.0, abs=1e-12)


def test_gaussian_packet_moves():
    cfg = EvolutionConfig(box=16.0, resolution=32, dt=5e-3, steps=100)
    psi = gaussian_packet(cfg, width=1.0, momentum=(1.0, 0.0, 0.0))
    final = run(psi, cfg)[-1]
    c0 = density_center(psi, cfg)
    c1 = density_center(final, cfg)
    # group velocity = momentum in natural units
    assert c1[0] - c0[0] == pytest.approx(cfg.dt * cfg.steps, rel=0.05)
    assert abs(c1[1]) < 1e-6 and abs(c1[2]) < 1e-6


def test_initial_knot_state_contains_curve():
    cfg = EvolutionConfig(box=16.0, resolution=64, dt=5e-4, steps=0)
    psi = initial_knot_state(field_library("milnor", (2, 3)), cfg)
    assert psi.norm() > 0
    report = track_nodal([psi], cfg)
    assert report.snapshots[0].n_components == 1
    assert report.events == ()


@pytest.mark.parametrize("box, resolution", [(16.0, 64), (12.0, 64), (16.0, 128)],
                         ids=["16.0", "12.0", "16.0-128"])  # 128: two-plane slabs
def test_initial_knot_state_matches_inline_stereographic_oracle(box, resolution):
    f, cfg = field_library("milnor", (2, 3)), EvolutionConfig(box=box, resolution=resolution)
    assert np.array_equal(initial_knot_state(f, cfg).values, oracle_initial_knot_state(f, cfg))


def test_track_static_history_no_events():
    cfg = EvolutionConfig(box=16.0, resolution=64, dt=5e-4, steps=0)
    psi = initial_knot_state(field_library("milnor", (2, 3)), cfg)
    report = track_nodal([psi, FieldState(psi.values, 1.0, psi.norm0)], cfg)
    assert [s.n_components for s in report.snapshots] == [1, 1]
    assert report.max_displacement() == 0.0
    assert report.events == ()


def test_track_displacement_scales_with_time_step():
    cfg_a = EvolutionConfig(box=16.0, resolution=64, dt=5e-4, steps=10)
    cfg_b = EvolutionConfig(box=16.0, resolution=64, dt=2.5e-4, steps=10)
    f = field_library("milnor", (2, 3))

    def disp(cfg):
        hist = run(initial_knot_state(f, cfg), cfg, snapshot_every=5)
        report = track_nodal(hist, cfg)
        assert all(s.n_components == 1 for s in report.snapshots)
        return report.max_displacement()

    da, db = disp(cfg_a), disp(cfg_b)
    assert db < da  # slower clock, smaller per-interval motion
    assert da / db == pytest.approx(2.0, rel=0.35)


def test_track_nodeless_state():
    cfg = EvolutionConfig(box=8.0, resolution=32, dt=1e-3, steps=0)
    psi = gaussian_state(cfg, width=1.5)
    report = track_nodal([psi], cfg)
    assert report.snapshots[0].n_components == 0


def test_track_report_csv():
    cfg = EvolutionConfig(box=8.0, resolution=32, dt=1e-3, steps=0)
    report = track_nodal([gaussian_state(cfg, width=1.5)], cfg)
    lines = report.to_csv().splitlines()
    assert lines[0] == "time,n_components,displacement,error"
    assert lines[1].startswith("0,0")


def test_match_compares_every_vertex_of_open_components():
    # the last vertex of an open filament is its free end, not a repeat of
    # the first vertex, so moving it by 5 must show up
    line = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    moved = line.copy()
    moved[-1, 0] += 5.0
    prev = NodalCurve((line,), "box", 0.0, (np.zeros(3),), (False,))
    curr = NodalCurve((moved,), "box", 0.0, (np.zeros(3),), (False,))
    events = []
    assert _match(prev, curr, 1.0, events, reconnect_dist=1.0) == 5.0
    assert [kind for _, kind, _ in events] == ["reconnection"]


def test_track_roi_validation():
    cfg = SMALL
    with pytest.raises(KnotfieldError):
        track_nodal([], cfg, roi=0.0)


@pytest.mark.parametrize("roi,cells", [(1e-6, 0), (0.25, 8), (0.5, 16), (27 / 32, 28), (1.0, 32)])
def test_track_region_is_every_cell_within_half_roi(monkeypatch, roi, cells):
    # Tracking sees the cells with |x| <= roi * box / 2 on every axis, as one
    # C-contiguous block: none for a roi under half a cell, and the cell at
    # exactly 27/32 * box / 2 is kept.
    seen = []

    def record(sub, axes, **_):
        seen.append((sub, axes))
        raise KnotfieldError("recorded")

    monkeypatch.setattr(evolution, "extract_from_samples", record)
    psi = gaussian_state(SMALL, width=1.0)
    assert track_nodal([psi], SMALL, roi=roi).snapshots[0].error == "recorded"
    [(sub, axes)] = seen
    ax = SMALL.axes()[0]
    keep = np.abs(ax) <= roi * SMALL.box / 2
    assert sub.flags.c_contiguous
    np.testing.assert_array_equal(sub, psi.values[np.ix_(keep, keep, keep)])
    for a in axes:
        np.testing.assert_array_equal(a, ax[keep])
    assert sub.shape == (cells,) * 3


def test_resolution_mismatch_rejected():
    psi = gaussian_state(SMALL, width=1.0)
    with pytest.raises(KnotfieldError):
        step(psi, EvolutionConfig(box=8.0, resolution=64), 1e-3)


def test_snapshot_interval_validation():
    psi = gaussian_state(SMALL)
    with pytest.raises(KnotfieldError, match="at least 0"):
        run(psi, SMALL, snapshot_every=-1)  # i % -1 == 0 would keep every step
    assert len(run(psi, SMALL, snapshot_every=0)) == 2


def test_snapshot_interval_checked_at_the_call():
    # not when the stream is first read: the error comes before any work
    with pytest.raises(KnotfieldError, match="at least 0"):
        snapshots(gaussian_state(SMALL), SMALL, -1)


def _report_values(report):
    """Everything a TrackReport holds, with curve arrays as bytes."""
    return [(s.time, s.error, s.displacement, s.n_components,
             None if s.curve is None else (
                 s.curve.chart, s.curve.residual, s.curve.closed_flags,
                 [c.tobytes() for c in s.curve.components],
                 [r.tobytes() for r in s.curve.vertex_residuals]))
            for s in report.snapshots], report.events


@pytest.mark.parametrize("steps,every", [(0, 0), (0, 2), (6, 0), (6, 2), (7, 3), (7, 1),
                                         (4, 9)])
def test_streamed_track_equals_track_of_run(steps, every):
    # (7, 3) ends in a one-step interval, (4, 9) in one interval shorter
    # than the requested one, and steps = 0 keeps the initial state alone
    cfg = EvolutionConfig(resolution=64, steps=steps, dt=2e-2)
    psi = initial_knot_state(field_library("milnor", (2, 3)), cfg)
    stream = snapshots(psi, cfg, every)
    assert not isinstance(stream, list)
    listed = run(psi, cfg, snapshot_every=every)
    got, want = track_nodal(stream, cfg), track_nodal(listed, cfg)
    assert [s.time for s in got.snapshots] == [s.time for s in listed]
    assert _report_values(got) == _report_values(want)
    assert all(np.array_equal(a.values, b.values)
               for a, b in zip(snapshots(psi, cfg, every), listed, strict=True))


def test_config_json():
    import json
    d = json.loads(SMALL.to_json())
    assert d["hamiltonian"] == "free" and d["resolution"] == 32


def _relative_gap(a, b):
    return np.abs(a.values - b.values).max() / np.abs(b.values).max()


def _initial(kind, cfg):
    if kind == "milnor":
        return initial_knot_state(field_library("milnor", (2, 3)), cfg)
    return gaussian_packet(cfg, center=(0.5, 0.0, 0.0), width=1.0, momentum=(1.0, 0.5, 0.0))


@pytest.mark.parametrize("ham,tol", [("free", 1e-12), ("harmonic", 1e-13)])
@pytest.mark.parametrize("resolution,steps", [(32, 16), (64, 9)])
@pytest.mark.parametrize("kind", ["milnor", "gaussian"])
def test_run_matches_per_step_oracle(kind, resolution, steps, ham, tol):
    # jumped (free) and fused (harmonic) intervals against single steps,
    # including a last interval shorter than the others (every = 7)
    cfg = EvolutionConfig(hamiltonian=ham, box=16.0, resolution=resolution,
                          dt=2e-3, steps=steps, omega=(1.0, 1.5, 0.5))
    psi = _initial(kind, cfg)
    for every in (0, 1, 7, steps):
        got, want = run(psi, cfg, every), oracle_run(psi, cfg, every)
        assert [s.time for s in got] == [s.time for s in want]
        assert all(s.norm0 == psi.norm0 for s in got)
        assert max(_relative_gap(a, b) for a, b in zip(got, want)) <= tol


@pytest.mark.parametrize("kind,resolution,steps,omega", [
    ("milnor", 64, 60, (1.0, 1.0, 1.0)),  # the benchmark's harmonic evolve run
    ("milnor", 32, 16, (0.0, 2.0, 1.0)),  # axis 0 purely kinetic
    ("gaussian", 32, 16, (0.0, 2.0, 1.0)),
])
def test_harmonic_run_matches_per_step_oracle(kind, resolution, steps, omega):
    # as above, with one oracle run of single steps for all intervals: the
    # snapshots every e steps are its states 0, e, 2e, ... and the last
    cfg = EvolutionConfig(hamiltonian="harmonic", box=16.0, resolution=resolution,
                          dt=2e-3, steps=steps, omega=omega)
    psi = _initial(kind, cfg)
    states = oracle_run(psi, cfg, 1)
    for every in (0, 1, 7, steps):
        got = run(psi, cfg, every)
        want = [states[i] for i in sorted({*range(0, steps, every or steps), steps})]
        assert [s.time for s in got] == [s.time for s in want]
        assert all(s.norm0 == psi.norm0 for s in got)
        assert max(_relative_gap(a, b) for a, b in zip(got, want)) <= 1e-13


@pytest.mark.parametrize("omega", [0.0, 0.5, 1.5])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 60, 6000])
def test_axis_matrix_matches_per_step_oracle(n, omega):
    # repeated squaring against n single Strang steps applied to the identity
    cfg = EvolutionConfig(hamiltonian="harmonic", resolution=64)
    got = evolution._axis_matrix(cfg, omega, n, cfg.dt)
    assert np.abs(got - oracle_axis_matrix(cfg, omega, n, cfg.dt)).max() <= 1e-12


@pytest.mark.parametrize("omega", [(1.0, 1.0, 1.0), (1.0, 1.5, 0.5)], ids=["equal", "unequal"])
@pytest.mark.parametrize("ham", ["free", "harmonic"])
@pytest.mark.parametrize("resolution", [16, 32, 64, 128])
def test_advance_is_bit_identical_to_whole_cube_products(resolution, ham, omega):
    # slice-by-slice products in place give the bits of the three-product form;
    # this rests on the BLAS summing each product in the same order for one
    # (N^2, N) @ (N, N) product as for N products of (N, N), as OpenBLAS's
    # zgemm does at one and at two threads
    cfg = EvolutionConfig(hamiltonian=ham, box=8.0, resolution=resolution, omega=omega)
    states = [gaussian_state(cfg), initial_knot_state(field_library("milnor", (2, 3)), cfg)]
    for n in (1, 5, 60):
        phases = evolution._phases(cfg, n, cfg.dt)
        for psi in states:
            got = evolution._advance(psi, cfg, n, cfg.dt, phases).values
            want = oracle_axis_products(psi.values, phases)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_advance_peak_memory_is_one_cube():
    # Beyond its input, _advance holds its 4 MiB output cube at N = 64 and
    # per-slice temporaries; the whole-cube products hold a second cube,
    # about 8 MiB.  The bound lies halfway between one cube and two.
    cfg = EvolutionConfig(hamiltonian="harmonic", resolution=64)
    psi, phases = gaussian_state(cfg), evolution._phases(cfg, 5, cfg.dt)

    def peak(advance):
        tracemalloc.start()
        try:
            advance()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(lambda: evolution._advance(psi, cfg, 5, cfg.dt, phases)) < 6 * 2 ** 20
    # the bound sees a second whole cube
    assert peak(lambda: oracle_axis_products(psi.values, phases)) > 6 * 2 ** 20


def test_propagation_holds_two_states(tmp_path):
    # A propagation step holds the state it starts from and the 4 MiB state
    # it builds at 64^3, 8 MiB, and per-slice temporaries beside them; a
    # cube-sized finiteness mask (512 KiB) or a tracked subcube's copy
    # kept over the step exceeds the bound.
    def peak(argv, resolution):
        tracemalloc.start()
        try:
            assert main(["evolve", *argv, "--resolution", str(resolution),
                         "--out", str(tmp_path / "out.txt")]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for argv in (["run", "--steps", "60"], ["track", "--steps", "20", "--snapshot-every", "5"]):
        peak(argv, 16)  # imports, tables and caches built outside the measurement
        assert peak(argv, 64) < 8.25 * 2 ** 20, argv


@pytest.mark.parametrize("ham", ["free", "harmonic"])
def test_negative_step_matches_oracle(ham):
    cfg = EvolutionConfig(hamiltonian=ham, box=8.0, resolution=32, dt=1e-3)
    psi = gaussian_packet(cfg, width=1.0, momentum=(0.5, 0.0, 0.0))
    got, want = step(psi, cfg, dt=-cfg.dt), oracle_step(psi, cfg, -cfg.dt)
    assert got.time == want.time == -cfg.dt
    assert _relative_gap(got, want) <= 1e-13


def test_track_matches_per_step_oracle():
    # the benchmark's track command: milnor:2,3 at 64^3, 20 steps, every 5
    cfg = EvolutionConfig(resolution=64, steps=20)
    psi = initial_knot_state(field_library("milnor", (2, 3)), cfg)
    got = track_nodal(run(psi, cfg, snapshot_every=5), cfg)
    want = track_nodal(oracle_run(psi, cfg, snapshot_every=5), cfg)
    assert [s.time for s in got.snapshots] == [s.time for s in want.snapshots]
    assert ([s.n_components for s in got.snapshots]
            == [s.n_components for s in want.snapshots])
    assert got.events == want.events


def test_harmonic_track_matches_per_step_oracle():
    # the benchmark's track command under the harmonic Hamiltonian
    cfg = EvolutionConfig(hamiltonian="harmonic", resolution=64, steps=20)
    psi = initial_knot_state(field_library("milnor", (2, 3)), cfg)
    got = track_nodal(run(psi, cfg, snapshot_every=5), cfg)
    want = track_nodal(oracle_run(psi, cfg, snapshot_every=5), cfg)
    assert ([(s.time, s.n_components, s.n_closed, s.n_open) for s in got.snapshots]
            == [(s.time, s.n_components, s.n_closed, s.n_open) for s in want.snapshots])
    assert got.events == want.events


@pytest.mark.parametrize("steps,every,calls", [(60, 0, 1), (20, 5, 4), (20, 7, 3)])
def test_free_run_takes_one_fft_pair_per_interval(monkeypatch, steps, every, calls):
    # The free propagator that was one FFT pair per kept interval is now one
    # omega = 0 per-axis step per interval: still one application each.
    real, counted = evolution._advance, []

    def advance(*args, **kwargs):
        counted.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(evolution, "_advance", advance)
    cfg = EvolutionConfig(box=8.0, resolution=32, steps=steps)
    run(gaussian_state(cfg), cfg, snapshot_every=every)
    assert len(counted) == calls


@pytest.mark.parametrize("ham", ["free", "harmonic"])
def test_run_takes_no_3d_fft(monkeypatch, ham):
    def fail(*args, **kwargs):
        raise AssertionError(f"3-D FFT in a {ham} run")

    monkeypatch.setattr(np.fft, "fftn", fail)
    monkeypatch.setattr(np.fft, "ifftn", fail)
    cfg = EvolutionConfig(hamiltonian=ham, box=8.0, resolution=32, steps=20)
    assert len(run(gaussian_state(cfg), cfg, snapshot_every=7)) == 4


@pytest.mark.parametrize("ham,omega,builds,dts", [
    ("free", (1.0, 1.0, 1.0), [(1, 0.0), (1, 0.0)], [7 * 2e-3, 6 * 2e-3]),
    ("harmonic", (1.0, 1.0, 1.0), [(7, 1.0), (6, 1.0)], [2e-3] * 2),
    ("harmonic", (1.0, 1.5, 0.5), [(7, 1.0), (7, 1.5), (7, 0.5), (6, 1.0), (6, 1.5), (6, 0.5)],
     [2e-3] * 6),
], ids=["free-2", "harmonic-2", "harmonic-6"])
def test_run_builds_each_phase_once(monkeypatch, ham, omega, builds, dts):
    # 20 steps every 7: intervals 7, 7, 6.  Harmonic builds one axis matrix
    # per interval length and distinct frequency; free, the omega = 0
    # oscillator whatever omega says, one single step spanning the interval.
    real_axis, built, built_dts = evolution._axis_matrix, [], []

    def axis_matrix(cfg, om, n, dt):
        built.append((n, om))
        built_dts.append(dt)
        return real_axis(cfg, om, n, dt)

    monkeypatch.setattr(evolution, "_axis_matrix", axis_matrix)
    cfg = EvolutionConfig(hamiltonian=ham, box=8.0, resolution=32, dt=2e-3, steps=20,
                          omega=omega)
    run(gaussian_state(cfg), cfg, snapshot_every=7)
    assert built == builds
    assert built_dts == dts


@pytest.mark.parametrize("kind", ["milnor", "gaussian"])
def test_free_run_is_the_zero_frequency_oscillator(kind):
    # free jumps each interval in one step of span n dt; harmonic at
    # omega = 0 takes n Strang steps whose kicks are the identity
    base = dict(box=16.0, resolution=32, dt=2e-3, steps=16)
    free = EvolutionConfig(hamiltonian="free", **base)
    still = EvolutionConfig(hamiltonian="harmonic", omega=(0.0, 0.0, 0.0), **base)
    psi = _initial(kind, free)
    for every in (0, 1, 7):
        got, want = run(psi, free, every), run(psi, still, every)
        assert [s.time for s in got] == [s.time for s in want]
        assert max(_relative_gap(a, b) for a, b in zip(got, want)) <= 1e-13


def test_free_run_over_a_long_span_is_one_exact_step(monkeypatch):
    # 10^6 steps to t = 1000: one matrix, no drift accumulated per step
    real_axis, built = evolution._axis_matrix, []

    def axis_matrix(cfg, om, n, dt):
        built.append((n, om))
        return real_axis(cfg, om, n, dt)

    monkeypatch.setattr(evolution, "_axis_matrix", axis_matrix)
    cfg = EvolutionConfig(box=8.0, resolution=32, dt=1e-3, steps=10 ** 6)
    psi = plane_wave(cfg, (2, 1, 0))
    final = run(psi, cfg)[-1]
    assert built == [(1, 0.0)]
    assert final.norm_drift() < 1e-14
    k2 = (2 * np.pi / cfg.box) ** 2 * (4 + 1)
    expect = psi.values * np.exp(-0.5j * k2 * cfg.steps * cfg.dt)
    assert np.abs(final.values - expect).max() < 1e-10


def test_initial_state_validation():
    f = field_library("milnor", (2, 3))
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(KnotfieldError, match="width"):
            gaussian_state(SMALL, width=bad)
        with pytest.raises(KnotfieldError, match="scale"):
            initial_knot_state(f, SMALL, scale=bad)
    # a finite scale whose chart coordinates overflow the embedding is named
    # before any sampling
    with pytest.raises(KnotfieldError, match=r"scale 1e-160 \(chart extent"):
        initial_knot_state(f, SMALL, scale=1e-160)
    for width in (1e-308, 1e200):  # 2 width^2 underflows to 0, or overflows
        with pytest.raises(KnotfieldError, match="out of floating-point range"):
            gaussian_state(SMALL, width=width)


def test_track_min_amp_validation():
    psi = gaussian_state(SMALL)
    for bad in (float("nan"), -1e-3, float("inf")):
        with pytest.raises(KnotfieldError, match="min_amp"):
            track_nodal([psi], SMALL, min_amp=bad)
    assert track_nodal([psi], SMALL, min_amp=0.0).snapshots[0].n_components == 0


def test_track_counts_closed_and_open_components():
    line = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    loop = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    curve = NodalCurve((loop, line, line), "box", 0.0,
                       (np.zeros(4), np.zeros(2), np.zeros(2)), (True, False, False))
    snap = evolution.TrackedSnapshot(0.0, curve)
    assert (snap.n_components, snap.n_closed, snap.n_open) == (3, 1, 2)
    gap = evolution.TrackedSnapshot(0.0, None, "failed")
    assert (gap.n_closed, gap.n_open) == (None, None)


@pytest.mark.parametrize("resolution,box,width", [(16, 8.0, 1.0), (32, 8.0, 1.5), (64, 16.0, 0.7)])
def test_gaussian_state_is_the_packet_at_rest(resolution, box, width):
    # the zero-momentum factor exp(i 0 . x) was exactly 1 + 0j
    cfg = EvolutionConfig(box=box, resolution=resolution)
    got, want = gaussian_state(cfg, width), gaussian_packet(cfg, width=width)
    assert got.values.tobytes() == want.values.tobytes()
    assert got.norm0 == want.norm0


def test_norm_drift_of_the_zero_state_is_zero():
    zero = FieldState(np.zeros((4, 4, 4)))
    assert zero.norm0 == 0.0
    assert zero.norm_drift() == 0.0
    assert FieldState(np.ones((4, 4, 4)), 1.0, 0.0).norm_drift() == 0.0


def test_track_records_a_gap_and_resumes_from_the_last_good_curve(monkeypatch):
    # snapshots A, B, then one whose extraction raises, then B again: the
    # gap is logged, and the last snapshot is matched against B (a move of
    # 0), not against A
    cfg = EvolutionConfig(box=16.0, resolution=64, dt=5e-2, steps=4)
    a, b = run(initial_knot_state(field_library("milnor", (2, 3)), cfg), cfg)
    real, calls = evolution.extract_from_samples, []

    def extract_from_samples(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise KnotfieldError("no curve here")
        return real(*args, **kwargs)

    monkeypatch.setattr(evolution, "extract_from_samples", extract_from_samples)
    history = [a, b, FieldState(b.values, 0.5, b.norm0), FieldState(b.values, 0.75, b.norm0)]
    report = track_nodal(history, cfg)
    monkeypatch.undo()
    plain = track_nodal([a, b], cfg)
    assert [s.time for s in report.snapshots] == [0.0, b.time, 0.5, 0.75]
    assert [s.error for s in report.snapshots] == ["", "", "no curve here", ""]
    assert report.snapshots[2].curve is None and report.snapshots[2].displacement is None
    assert report.snapshots[1].displacement == plain.snapshots[1].displacement > 0
    assert report.snapshots[3].displacement == 0.0
    assert report.events == plain.events + ((0.5, "gap", "no curve here"),)
