"""Spectral Schrodinger propagation and nodal curve tracking.

The free propagator is exact for lattice plane waves, which gives
machine-precision oracles: a plane wave with wavevector k picks up the
phase exp(-i |k|^2 t / 2) and nothing else.
"""

import numpy as np
import pytest
from oracles import density_center, oracle_initial_knot_state, oracle_run, oracle_step, plane_wave

from knotfield import evolution
from knotfield.errors import KnotfieldError
from knotfield.evolution import (
    EvolutionConfig,
    _match,
    FieldState,
    gaussian_state,
    initial_knot_state,
    run,
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
    cfg = EvolutionConfig(omega=2.0)
    assert cfg.omega == (2.0, 2.0, 2.0)


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


def test_plane_wave_exact_phase():
    # free evolution multiplies exp(i k.x) by exp(-i |k|^2 t / 2) exactly
    cfg = SMALL
    psi = plane_wave(cfg, (2, 1, 0))
    out = psi
    for _ in range(cfg.steps):
        out = step(out, cfg)
    kf = 2 * np.pi / cfg.box
    k2 = kf * kf * (4 + 1)
    t = cfg.steps * cfg.dt
    expect = psi.values * np.exp(-0.5j * k2 * t)
    assert np.abs(out.values - expect).max() < 1e-12


def test_free_steps_compose_exactly():
    cfg = SMALL
    psi = gaussian_state(cfg, width=1.2, momentum=(1.0, 0.0, 0.0))
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
    psi = gaussian_state(EvolutionConfig(**base), width=1.0,
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
    psi = gaussian_state(cfg, width=1.0, momentum=(0.5, 0.0, 0.0))
    fwd = run(psi, cfg)[-1]
    back = fwd
    for _ in range(cfg.steps):
        back = step(back, cfg, dt=-cfg.dt)
    assert np.abs(back.values - psi.values).max() < 1e-10
    assert back.time == pytest.approx(0.0, abs=1e-12)


def test_gaussian_packet_moves():
    cfg = EvolutionConfig(box=16.0, resolution=32, dt=5e-3, steps=100)
    psi = gaussian_state(cfg, width=1.0, momentum=(1.0, 0.0, 0.0))
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
                         ids=["16.0", "12.0", "16.0-128"])  # 128: four-plane slabs
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
    prev = NodalCurve((line,), "box", 0.0, closed_flags=(False,))
    curr = NodalCurve((moved,), "box", 0.0, closed_flags=(False,))
    events = []
    assert _match(prev, curr, 1.0, events, reconnect_dist=1.0) == 5.0
    assert [kind for _, kind, _ in events] == ["reconnection"]


def test_track_roi_validation():
    cfg = SMALL
    with pytest.raises(KnotfieldError):
        track_nodal([], cfg, roi=0.0)


def test_resolution_mismatch_rejected():
    psi = gaussian_state(SMALL, width=1.0)
    with pytest.raises(KnotfieldError):
        step(psi, EvolutionConfig(box=8.0, resolution=64))


def test_snapshot_interval_validation():
    psi = gaussian_state(SMALL)
    with pytest.raises(KnotfieldError, match="at least 0"):
        run(psi, SMALL, snapshot_every=-1)  # i % -1 == 0 would keep every step
    assert len(run(psi, SMALL, snapshot_every=0)) == 2


def test_config_json():
    import json
    d = json.loads(SMALL.to_json())
    assert d["hamiltonian"] == "free" and d["resolution"] == 32


def _relative_gap(a, b):
    return np.abs(a.values - b.values).max() / np.abs(b.values).max()


def _initial(kind, cfg):
    if kind == "milnor":
        return initial_knot_state(field_library("milnor", (2, 3)), cfg)
    return gaussian_state(cfg, center=(0.5, 0.0, 0.0), width=1.0, momentum=(1.0, 0.5, 0.0))


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


@pytest.mark.parametrize("ham", ["free", "harmonic"])
def test_negative_step_matches_oracle(ham):
    cfg = EvolutionConfig(hamiltonian=ham, box=8.0, resolution=32, dt=1e-3)
    psi = gaussian_state(cfg, width=1.0, momentum=(0.5, 0.0, 0.0))
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


def test_track_min_amp_validation():
    psi = gaussian_state(SMALL)
    for bad in (float("nan"), -1e-3, float("inf")):
        with pytest.raises(KnotfieldError, match="min_amp"):
            track_nodal([psi], SMALL, min_amp=bad)
    assert track_nodal([psi], SMALL, min_amp=0.0).snapshots[0].n_components == 0


def test_track_counts_closed_and_open_components():
    line = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    loop = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    curve = NodalCurve((loop, line, line), "box", 0.0, closed_flags=(True, False, False))
    snap = evolution.TrackedSnapshot(0.0, curve)
    assert (snap.n_components, snap.n_closed, snap.n_open) == (3, 1, 2)
    gap = evolution.TrackedSnapshot(0.0, None, "failed")
    assert (gap.n_closed, gap.n_open) == (None, None)
