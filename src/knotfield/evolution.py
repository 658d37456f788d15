"""Schrodinger evolution of sampled complex fields on a periodic box.

Natural units hbar = m = 1 throughout.  The free Hamiltonian uses the exact
spectral propagator (Fourier multiply by exp(-i |k|^2 T / 2)), so `run`
jumps from one kept snapshot to the next with one multiply over the whole
interval T.  The harmonic oscillator uses symmetric Strang splitting,
second order in dt; within an interval adjacent half-kicks are fused into
full kicks, and half-kicks act only at the interval's two ends, so every
snapshot is the exact Strang state.  Nodal curves of snapshots are
tracked over time with component matching.

Which Hamiltonians make interesting nodal dynamics is left open here; the
module ships the two standard ones and measures what happens, making no
claim that knot type is preserved.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import KnotfieldError
from .extraction import NodalCurve, SampleGrid, embed, extract_from_samples, hausdorff

TAPER = (0.7, 0.95)  # bump shoulder and cutoff of initial states, as fractions of L/2
RECONNECTION_FACTOR = 4.0  # a matched move beyond this many cells is a reconnection


@dataclass(frozen=True)
class EvolutionConfig:
    """Hamiltonian and discretization parameters.

    hamiltonian is "free" or "harmonic"; omega gives per-axis oscillator
    frequencies (a scalar is broadcast).  N must be a power of two for the
    spectral transform.
    """

    hamiltonian: str = "free"
    box: float = 16.0       # periodic cube side L
    resolution: int = 64    # N samples per axis
    dt: float = 1e-3
    steps: int = 100
    omega: tuple = (1.0, 1.0, 1.0)

    def __post_init__(self):
        if self.hamiltonian not in ("free", "harmonic"):
            raise KnotfieldError(f"unknown hamiltonian {self.hamiltonian!r}")
        if not 0 < self.dt < math.inf:
            raise KnotfieldError(f"dt must be positive and finite, got {self.dt}")
        if not 0 < self.box < math.inf:
            raise KnotfieldError(f"box side must be positive and finite, got {self.box}")
        if self.steps < 0:
            raise KnotfieldError(f"steps must be nonnegative, got {self.steps}")
        n = self.resolution
        if n < 2 or (n & (n - 1)) != 0:
            raise KnotfieldError(f"resolution must be a power of two >= 2, got {n}")
        om = self.omega
        if np.isscalar(om):
            om = (float(om),) * 3
        om = tuple(float(v) for v in om)
        if len(om) != 3 or not all(0 <= v < math.inf for v in om):
            raise KnotfieldError(
                f"omega must be three finite nonnegative frequencies, got {self.omega}")
        object.__setattr__(self, "omega", om)

    def axes(self):
        """Cell-centered sample coordinates, box centered on the origin.

        The half-cell offset keeps coordinate axes off the sample lattice,
        where symmetric fields tend to have exact zeros that degrade the
        marching extraction.
        """
        n, L = self.resolution, self.box
        ax = (np.arange(n) - n / 2 + 0.5) * (L / n)
        return ax, ax, ax

    @property
    def spacing(self):
        return self.box / self.resolution

    def wavenumbers(self):
        """Angular wavenumbers along one axis for the periodic box."""
        return 2.0 * np.pi * np.fft.fftfreq(self.resolution, d=self.spacing)

    def to_json(self) -> str:
        return json.dumps({
            "hamiltonian": self.hamiltonian, "box": self.box,
            "resolution": self.resolution, "dt": self.dt,
            "steps": self.steps, "omega": list(self.omega)})


@dataclass(frozen=True)
class FieldState:
    """N^3 complex samples at a moment of time.

    norm0 is the discrete L2 norm at construction of the initial state and
    rides along so later snapshots can report relative drift.
    """

    values: np.ndarray
    time: float = 0.0
    norm0: float = field(default=None)

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=complex)
        if v.ndim != 3 or len(set(v.shape)) != 1:
            raise KnotfieldError(f"values must be a cubic 3d array, got shape {v.shape}")
        if not np.all(np.isfinite(v.view(float))):
            raise KnotfieldError("field values must be finite")
        object.__setattr__(self, "values", v)
        if self.norm0 is None:
            object.__setattr__(self, "norm0", _l2(v))

    @property
    def resolution(self):
        return self.values.shape[0]

    def norm(self) -> float:
        return _l2(self.values)

    def norm_drift(self) -> float:
        if self.norm0 == 0:
            return 0.0
        return abs(self.norm() - self.norm0) / self.norm0


def _l2(values) -> float:
    # Grid-functional norm; the cell volume factor cancels in drift ratios
    # but keeps norms comparable across resolutions.
    return float(np.sqrt(np.sum(np.abs(values) ** 2)))


def _kinetic_phase(cfg: EvolutionConfig, span: float):
    """exp(-i |k|^2 span / 2): the free propagator over time span, in k-space."""
    k = cfg.wavenumbers()
    k2 = (k[:, None, None] ** 2 + k[None, :, None] ** 2 + k[None, None, :] ** 2)
    return np.exp(-0.5j * span * k2)


def _potential(cfg: EvolutionConfig):
    ax = cfg.axes()
    wx, wy, wz = cfg.omega
    return 0.5 * ((wx * ax[0][:, None, None]) ** 2
                  + (wy * ax[1][None, :, None]) ** 2
                  + (wz * ax[2][None, None, :]) ** 2)


def _phases(cfg: EvolutionConfig, n: int, dt: float):
    """Phase arrays for n steps of dt: (kinetic, half kick, full kick).

    The free propagator is one kinetic phase over the whole span n * dt and
    has no kicks; the harmonic one takes n Strang steps, so its arrays are
    those of a single step and do not depend on n.
    """
    if cfg.hamiltonian == "free":
        return _kinetic_phase(cfg, n * dt), None, None
    v = _potential(cfg)
    return _kinetic_phase(cfg, dt), np.exp(-0.5j * dt * v), np.exp(-1j * dt * v)


def _advance(s: FieldState, cfg: EvolutionConfig, n: int, dt: float, phases=None) -> FieldState:
    """n propagator steps of dt from s in one call.

    Free: one multiply by exp(-i |k|^2 n dt / 2) between one FFT pair,
    exact for any n.  Harmonic: n Strang steps whose adjacent half-kicks
    are merged into full kicks, so half-kicks act only at the two ends and
    the result is the exact n-step Strang state.  phases, from
    `_phases(cfg, n, dt)`, lets a caller build them once for many calls.
    The time stamp adds dt n times, as n single steps would.
    """
    if s.resolution != cfg.resolution:
        raise KnotfieldError(
            f"state resolution {s.resolution} does not match config {cfg.resolution}")
    kinetic, half, full = phases if phases is not None else _phases(cfg, n, dt)
    if half is None:
        out = np.fft.fftn(s.values)
        out *= kinetic
        np.fft.ifftn(out, out=out)
    else:
        out = half * s.values
        for i in range(n):
            np.fft.fftn(out, out=out)
            out *= kinetic
            np.fft.ifftn(out, out=out)
            out *= full if i < n - 1 else half
    if not np.all(np.isfinite(out.view(float))):
        raise KnotfieldError(f"numeric overflow during step at t = {s.time}")
    t = s.time
    for _ in range(n):
        t += dt
    return FieldState(out, t, s.norm0)


def step(s: FieldState, cfg: EvolutionConfig, dt: float = None) -> FieldState:
    """One propagator application; dt defaults to cfg.dt and may be negative
    (time reversal)."""
    return _advance(s, cfg, 1, cfg.dt if dt is None else dt)


def run(state: FieldState, cfg: EvolutionConfig, snapshot_every: int = 0):
    """Evolve cfg.steps steps; return the list of snapshots.

    snapshot_every = 0 keeps only the initial and final states.  The state
    jumps from one kept snapshot to the next in a single `_advance` call;
    the phase arrays of each distinct interval length are built once.
    """
    if snapshot_every < 0:
        raise KnotfieldError(f"snapshot interval must be at least 0, got {snapshot_every}")
    every = snapshot_every or cfg.steps
    snaps = [state]
    built = {}
    done = 0
    while done < cfg.steps:
        n = min(every, cfg.steps - done)
        key = n if cfg.hamiltonian == "free" else 1  # harmonic phases do not depend on n
        if key not in built:
            built[key] = _phases(cfg, n, cfg.dt)
        state = _advance(state, cfg, n, cfg.dt, built[key])
        snaps.append(state)
        done += n
    return snaps


def initial_knot_state(f, cfg: EvolutionConfig, scale: float = None) -> FieldState:
    """Sample a library field into the box through inverse stereographic
    projection, tapered to zero near the boundary.

    The box point x maps to the chart point u = x / scale and then, by
    `embed` in the north chart, onto the unit sphere; the nodal knot lands
    near the box center with bounding radius about 2 * scale.  A Gaussian
    radial taper (1 inside TAPER[0] * L/2, decaying to below 1e-15 of peak
    by TAPER[1] * L/2) enforces periodicity to rounding error.  The taper is
    strictly positive, so it multiplies amplitudes without creating new
    zeros.
    """
    L = cfg.box
    if scale is None:
        scale = L / 16.0
    if not 0 < scale < math.inf:
        raise KnotfieldError(f"scale must be positive and finite, got {scale}")
    lo, hi = (t * L / 2.0 for t in TAPER)
    ax = cfg.axes()
    X, Y, Z = np.meshgrid(*ax, indexing="ij", sparse=True)
    z, w = embed(SampleGrid(), X / scale, Y / scale, Z / scale)
    vals = np.asarray(f(z, w), dtype=complex)

    rho = np.sqrt(X * X + Y * Y + Z * Z)
    t = np.maximum(rho - lo, 0.0) / ((hi - lo) / 6.0)
    bump = np.exp(-t * t)  # < 1e-15 at rho = hi, but never exactly zero
    return FieldState(vals * bump, 0.0)


def gaussian_state(cfg: EvolutionConfig, center=(0.0, 0.0, 0.0), width: float = 1.0,
                   momentum=(0.0, 0.0, 0.0)) -> FieldState:
    """exp(-|x - c|^2 / (2 width^2)) exp(i p . x), unnormalized."""
    if not 0 < width < math.inf:
        raise KnotfieldError(f"width must be positive and finite, got {width}")
    ax = cfg.axes()
    X, Y, Z = np.meshgrid(*ax, indexing="ij")
    cx, cy, cz = center
    px, py, pz = momentum
    r2 = (X - cx) ** 2 + (Y - cy) ** 2 + (Z - cz) ** 2
    return FieldState(np.exp(-r2 / (2.0 * width ** 2))
                      * np.exp(1j * (px * X + py * Y + pz * Z)), 0.0)


def plane_wave(cfg: EvolutionConfig, mode=(1, 0, 0)) -> FieldState:
    """exp(i k . x) with k a lattice wavevector (integer mode numbers)."""
    ax = cfg.axes()
    X, Y, Z = np.meshgrid(*ax, indexing="ij")
    kf = 2.0 * np.pi / cfg.box
    mx, my, mz = mode
    return FieldState(np.exp(1j * kf * (mx * X + my * Y + mz * Z)), 0.0)


def density_center(s: FieldState, cfg: EvolutionConfig):
    """|psi|^2-weighted mean position, for trajectory checks."""
    ax = cfg.axes()
    rho = np.abs(s.values) ** 2
    tot = rho.sum()
    if tot == 0:
        raise KnotfieldError("cannot locate the center of the zero field")
    return np.array([float((rho.sum(axis=tuple(j for j in range(3) if j != i)) * ax[i]).sum())
                     for i in range(3)]) / tot


@dataclass(frozen=True)
class TrackedSnapshot:
    time: float
    curve: NodalCurve = None   # None when extraction failed (a gap)
    error: str = ""
    displacement: float = None  # max matched Hausdorff move since previous snapshot

    @property
    def n_components(self):
        return self.curve.n_components if self.curve is not None else None

    @property
    def n_closed(self):
        if self.curve is None:
            return None
        return sum(self.curve.is_closed(i) for i in range(self.curve.n_components))

    @property
    def n_open(self):
        return None if self.curve is None else self.n_components - self.n_closed


@dataclass(frozen=True)
class TrackReport:
    snapshots: tuple
    events: tuple  # (time, kind, detail) with kind creation|annihilation|reconnection|gap

    def max_displacement(self):
        vals = [s.displacement for s in self.snapshots if s.displacement is not None]
        return max(vals) if vals else 0.0

    def to_csv(self) -> str:
        lines = ["time,n_components,displacement,error"]
        for s in self.snapshots:
            nc = "" if s.n_components is None else s.n_components
            d = "" if s.displacement is None else f"{s.displacement:.9g}"
            lines.append(f"{s.time:.9g},{nc},{d},{s.error}")
        return "\n".join(lines) + "\n"


def track_nodal(history, cfg: EvolutionConfig, min_amp: float = None,
                roi: float = 0.5) -> TrackReport:
    """Extract nodal curves per snapshot and match components in time.

    Components of consecutive snapshots are paired greedily by smallest
    Hausdorff distance.  A count change is logged as creation/annihilation;
    a matched pair moving more than RECONNECTION_FACTOR * spacing in one
    interval is logged as a reconnection candidate.  Extraction failures
    are recorded as gaps and tracking resumes at the next good snapshot.

    Tracking is confined to the central subcube of side roi * box (the
    initial knot sits well inside it) and to amplitudes above min_amp,
    which defaults to 1e-3 of each snapshot's peak: the free kernel
    propagates amplitude at unbounded speed, so the tapered far field
    immediately hosts faint interference zeros that are not part of the
    nodal core.  Filaments leaving the subcube or dipping under the floor
    come back as open components.
    """
    if not 0 < roi <= 1:
        raise KnotfieldError(f"roi must be a fraction in (0, 1], got {roi}")
    if min_amp is not None and not 0 <= min_amp < math.inf:
        raise KnotfieldError(f"min_amp must be finite and nonnegative, got {min_amp}")
    ax = cfg.axes()
    half = roi * cfg.box / 2.0
    keep = np.abs(ax[0]) <= half
    sub_ax = tuple(a[keep] for a in ax)
    snaps = []
    events = []
    prev = None  # last successfully extracted curve
    for st in history:
        amp = min_amp
        if amp is None:
            amp = 1e-3 * float(np.abs(st.values).max())
        sub = st.values[np.ix_(keep, keep, keep)]
        try:
            curve = extract_from_samples(sub, sub_ax, min_amp=amp,
                                         allow_open=True)
        except KnotfieldError as exc:
            snaps.append(TrackedSnapshot(st.time, None, str(exc)))
            events.append((st.time, "gap", str(exc)))
            continue
        disp = None
        if prev is not None:
            disp = _match(prev, curve, st.time, events,
                          RECONNECTION_FACTOR * cfg.spacing)
        snaps.append(TrackedSnapshot(st.time, curve, "", disp))
        prev = curve
    return TrackReport(tuple(snaps), tuple(events))


def _vertices(curve: NodalCurve):
    """Component vertices, without the repeated last vertex of closed ones."""
    return [c[:-1] if curve.is_closed(i) else c for i, c in enumerate(curve.components)]


def _match(prev: NodalCurve, curr: NodalCurve, time, events, reconnect_dist):
    a, b = _vertices(prev), _vertices(curr)
    if len(b) > len(a):
        events.append((time, "creation", f"{len(a)} -> {len(b)} components"))
    elif len(b) < len(a):
        events.append((time, "annihilation", f"{len(a)} -> {len(b)} components"))
    dmax = 0.0
    used = set()
    for comp in b:
        best, bi = None, None
        for i, ref in enumerate(a):
            if i in used:
                continue
            d = hausdorff(comp, ref)
            if best is None or d < best:
                best, bi = d, i
        if bi is None:
            continue
        used.add(bi)
        dmax = max(dmax, best)
        if best > reconnect_dist:
            events.append((time, "reconnection",
                           f"component moved {best:.3g} in one interval"))
    return dmax
