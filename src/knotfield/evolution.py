"""Schrodinger evolution of sampled complex fields on a periodic box.

Natural units hbar = m = 1 throughout.  Both Hamiltonians share one
propagator form.  The harmonic oscillator uses symmetric Strang splitting,
second order in dt.  Its kinetic phase and potential are both sums over
the three axes, so n Strang steps are exactly the Kronecker product of
three 1-D n-step propagators: `run` builds one N x N matrix per axis and
interval length and jumps to each snapshot with three matrix products.
The free Hamiltonian is the omega = 0 oscillator, whose kicks are the
identity, so a single Strang step of span T is its exact spectral
propagator (exp(-i k^2 T / 2) between a 1-D FFT pair) and a whole
snapshot interval is one such step.  Every snapshot is the exact Strang
state.  Nodal curves of snapshots are tracked over time with component
matching.

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
from .extraction import (NodalCurve, SampleGrid, check_chart_extent, check_cube_size,
                         extract_from_samples, hausdorff, sample_lattice)

TAPER = (0.7, 0.95)  # bump shoulder and cutoff of initial states, as fractions of L/2
RECONNECTION_FACTOR = 4.0  # a matched move beyond this many cells is a reconnection


@dataclass(frozen=True)
class EvolutionConfig:
    """Hamiltonian and discretization parameters.

    hamiltonian is "free" or "harmonic"; omega gives per-axis oscillator
    frequencies (a scalar is broadcast) and is unused by "free".  The
    resolution N, samples per axis, must be a power of two of at least 2.
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
        check_cube_size(n)
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


def _axis_matrix(cfg: EvolutionConfig, omega: float, n: int, dt: float):
    """n Strang steps of dt along one axis of frequency omega, as an N x N matrix.

    The sequence (half kick; then n times 1-D FFT, kinetic phase
    exp(-i k^2 dt / 2), inverse FFT, full kick; the last kick a half one)
    applied to the columns of the identity.
    """
    v = 0.5 * (omega * cfg.axes()[0]) ** 2
    half, full = np.exp(-0.5j * dt * v), np.exp(-1j * dt * v)
    kinetic = np.exp(-0.5j * dt * cfg.wavenumbers() ** 2)
    m = np.diag(half)
    for i in range(n):
        m = np.fft.fft(m, axis=0)
        m *= kinetic[:, None]
        np.fft.ifft(m, axis=0, out=m)
        m *= (full if i < n - 1 else half)[:, None]
    return m


def _phases(cfg: EvolutionConfig, n: int, dt: float):
    """The propagator over n steps of dt, as the three N x N matrices that
    `_advance` applies, the n-step Strang propagator along each axis.

    Kinetic phase and potential are both sums over axes, so the 3-D n-step
    propagator is exactly their Kronecker product.  Axes of equal frequency
    share one matrix.  The free Hamiltonian is omega = 0, where the kicks
    are the identity and n steps of dt are exactly one step of n dt: one
    matrix, exact and O(1) in n.  Built with floating-point warnings off:
    a dt or box that overflows leaves non-finite entries, which `_advance`
    reports as one error.
    """
    omega = cfg.omega
    if cfg.hamiltonian == "free":
        omega, n, dt = (0.0, 0.0, 0.0), 1, n * dt
    with np.errstate(over="ignore", invalid="ignore"):
        built = {om: _axis_matrix(cfg, om, n, dt) for om in dict.fromkeys(omega)}
    return tuple(built[om] for om in omega)


def _advance(s: FieldState, cfg: EvolutionConfig, n: int, dt: float, phases) -> FieldState:
    """n propagator steps of dt from s in one call: the exact n-step state
    as three matrix products, one per axis.  phases is `_phases(cfg, n,
    dt)`, which a caller builds once for many calls.  The time stamp adds
    dt n times, as n single steps would.
    """
    if s.resolution != cfg.resolution:
        raise KnotfieldError(
            f"state resolution {s.resolution} does not match config {cfg.resolution}")
    N = cfg.resolution
    m0, m1, m2 = phases
    with np.errstate(over="ignore", invalid="ignore"):
        out = (m0 @ s.values.reshape(N, N * N)).reshape(N, N, N)  # axis 0
        out = m1 @ out  # axis 1, one product per slice of axis 0
        out = (out.reshape(N * N, N) @ m2.T).reshape(N, N, N)  # axis 2
    if not np.all(np.isfinite(out.view(float))):
        raise KnotfieldError(f"numeric overflow during step at t = {s.time}")
    t = s.time
    for _ in range(n):
        t += dt
    return FieldState(out, t, s.norm0)


def step(s: FieldState, cfg: EvolutionConfig, dt: float = None) -> FieldState:
    """One propagator application; dt defaults to cfg.dt and may be negative
    (time reversal)."""
    dt = cfg.dt if dt is None else dt
    return _advance(s, cfg, 1, dt, _phases(cfg, 1, dt))


def run(state: FieldState, cfg: EvolutionConfig, snapshot_every: int = 0):
    """Evolve cfg.steps steps; return the list of snapshots.

    snapshot_every = 0 keeps only the initial and final states.  The state
    jumps from one kept snapshot to the next in a single `_advance` call;
    the propagator of each distinct interval length (`_phases`) is built
    once.
    """
    if snapshot_every < 0:
        raise KnotfieldError(f"snapshot interval must be at least 0, got {snapshot_every}")
    every = snapshot_every or cfg.steps
    snaps = [state]
    built = {}
    done = 0
    while done < cfg.steps:
        n = min(every, cfg.steps - done)
        if n not in built:
            built[n] = _phases(cfg, n, cfg.dt)
        state = _advance(state, cfg, n, cfg.dt, built[n])
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
    zeros.  Field and taper go through the one slab loop of
    `sample_lattice`, sized in points so each slab stays in cache, and are
    bit-identical to one evaluation on the whole box.
    """
    L = cfg.box
    if scale is None:
        scale = L / 16.0
    if not 0 < scale < math.inf:
        raise KnotfieldError(f"scale must be positive and finite, got {scale}")
    ax = cfg.axes()
    extent = max(float(np.abs(a).max()) for a in ax) / scale
    check_chart_extent(extent, f"scale {scale} (chart extent {extent})")
    lo, hi = (t * L / 2.0 for t in TAPER)
    X, Y, Z = np.meshgrid(*ax, indexing="ij", sparse=True)

    def bump(planes):
        x = X[planes]
        rho = np.sqrt(x * x + Y * Y + Z * Z)
        t = np.maximum(rho - lo, 0.0) / ((hi - lo) / 6.0)
        return np.exp(-t * t)  # < 1e-15 at rho = hi, but never exactly zero

    return FieldState(sample_lattice(f, SampleGrid(), tuple(a / scale for a in ax), bump), 0.0)


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
