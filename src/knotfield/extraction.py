"""Nodal-curve extraction: the zero set of a complex field as closed polylines.

Pipeline: sample the field on a regular grid in a chart, split each cell
into six tetrahedra around a consistent main diagonal, intersect the zero
line of the per-tet linear interpolant with the tet faces, chain segments
by shared faces into closed loops: `extract` returns this piecewise-linear
zero set.  `refine` then sharpens every vertex with damped Newton steps in
the plane normal to the local tangent; only `field extract` runs it.

Charts: S^3 = {|z|^2 + |w|^2 = r^2} in R^4 with coordinates
(x0, x1, x2, x3) = (Re z, Im z, Re w, Im w), stereographically projected
from the poles (+-r, 0, 0, 0).  The library fields are nonzero at both
poles, so the two charts each see the whole nodal set, near |u| = 1.
"""

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import KnotfieldError, OpenChainError

# Vertex bit order: id = bx + 2*by + 4*bz.  Six tets share the 0-7 diagonal.
_KUHN_TETS = (
    (0, 1, 3, 7), (0, 1, 5, 7), (0, 2, 3, 7),
    (0, 2, 6, 7), (0, 4, 5, 7), (0, 4, 6, 7),
)
_CORNER_OFFSETS = tuple((b & 1, (b >> 1) & 1, (b >> 2) & 1) for b in range(8))

NEWTON_MAX_STEPS = 20
NEWTON_TARGET = 1e-10
RESIDUAL_TOL = 1e-8
CLOSURE_REL_TOL = 1e-3
CONDITION_WARN = 1e8


@dataclass(frozen=True)
class SampleGrid:
    """Regular sampling lattice in one chart.

    chart: "north" or "south" stereographic chart of S^3, or "box" for a
    flat periodic cube (used when tracking evolved fields).
    """

    chart: str = "north"
    resolution: int = 64
    extent: float = 3.0
    radius: float = 1.0

    def __post_init__(self):
        if self.chart not in ("north", "south", "box"):
            raise KnotfieldError(f"unknown chart {self.chart!r}")
        if self.resolution < 16:
            raise KnotfieldError(f"resolution must be >= 16, got {self.resolution}")
        if self.extent <= 0 or self.radius <= 0:
            raise KnotfieldError("extent and radius must be positive")

    def axes(self):
        ax = np.linspace(-self.extent, self.extent, self.resolution)
        return ax, ax, ax

    @property
    def spacing(self):
        return 2.0 * self.extent / (self.resolution - 1)


def embed(grid: SampleGrid, u):
    """Map chart points u (shape (..., 3)) to (z, w) on the sphere."""
    u = np.asarray(u, dtype=float)
    x, y, zc = u[..., 0], u[..., 1], u[..., 2]
    s = 1.0 + x * x + y * y + zc * zc
    r = grid.radius
    if grid.chart == "north":
        x0 = r * (s - 2.0) / s  # (|u|^2 - 1)/(|u|^2 + 1)
    elif grid.chart == "south":
        x0 = -r * (s - 2.0) / s
    else:
        raise KnotfieldError("box chart has no sphere embedding")
    x1, x2, x3 = 2.0 * r * x / s, 2.0 * r * y / s, 2.0 * r * zc / s
    return x0 + 1j * x1, x2 + 1j * x3


def chart_transfer(u):
    """Coordinates of the same sphere point in the opposite chart: u / |u|^2."""
    u = np.asarray(u, dtype=float)
    s = np.sum(u * u, axis=-1, keepdims=True)
    return u / s


@dataclass(frozen=True)
class NodalCurve:
    """Polylines in chart coordinates; closed ones repeat their first vertex last."""

    components: tuple  # tuple of (k, 3) float arrays
    chart: str
    residual: float  # max |f| over all vertices; 0 on the piecewise-linear set
    vertex_residuals: tuple = ()  # per-vertex |f| arrays, parallel to components
    closed_flags: tuple = ()  # per-component; empty means all closed

    @property
    def n_components(self):
        return len(self.components)

    def is_closed(self, i) -> bool:
        return bool(self.closed_flags[i]) if self.closed_flags else True

    def to_csv(self) -> str:
        buf = io.StringIO()
        wr = csv.writer(buf, lineterminator="\n")
        wr.writerow(["component", "index", "x", "y", "z", "abs_f"])
        for ci, (pts, res) in enumerate(zip(self.components, self.vertex_residuals)):
            for i, (p, a) in enumerate(zip(pts, res)):
                wr.writerow([ci, i, f"{p[0]:.12g}", f"{p[1]:.12g}", f"{p[2]:.12g}",
                             f"{a:.6g}"])
        return buf.getvalue()

    def to_obj(self) -> str:
        """Wavefront-style polyline export (v + l records)."""
        lines = []
        offset = 1
        for ci, pts in enumerate(self.components):
            if self.is_closed(ci):
                pts = pts[:-1]
            for p in pts:
                lines.append(f"v {p[0]:.12g} {p[1]:.12g} {p[2]:.12g}")
            k = len(pts)
            idx = " ".join(str(offset + i) for i in range(k))
            lines.append(f"l {idx} {offset}" if self.is_closed(ci) else f"l {idx}")
            offset += k
        return "\n".join(lines) + "\n"


def _face_zero(ids, coords, vals):
    """Zero of the linear interpolant on a triangle, or None.

    ids fix a deterministic vertex order; returns barycentric point in
    world coordinates when all barycentric weights are >= -1e-12.
    """
    order = sorted(range(3), key=lambda i: ids[i])
    p = [coords[i] for i in order]
    f = [vals[i] for i in order]
    # lam0*f0 + lam1*f1 + (1 - lam0 - lam1)*f2 = 0
    a = np.array([[f[0].real - f[2].real, f[1].real - f[2].real],
                  [f[0].imag - f[2].imag, f[1].imag - f[2].imag]])
    b = -np.array([f[2].real, f[2].imag])
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    if abs(det) < 1e-300:
        return None
    l0 = (b[0] * a[1, 1] - b[1] * a[0, 1]) / det
    l1 = (a[0, 0] * b[1] - a[1, 0] * b[0]) / det
    l2 = 1.0 - l0 - l1
    if l0 < -1e-12 or l1 < -1e-12 or l2 < -1e-12:
        return None
    return l0 * p[0] + l1 * p[1] + l2 * p[2]


def _candidate_cells(values, min_amp, slab=32):
    """Indices of cells whose corners straddle zero in both Re and Im.

    Processed in x-slabs to keep peak memory flat at large resolutions.
    """
    n0, n1, n2 = values.shape
    out = []
    for lo in range(0, n0 - 1, slab):
        hi = min(lo + slab, n0 - 1)
        block = values[lo:hi + 1]
        re, im = block.real, block.imag
        m0 = hi - lo

        def corner_stack(arr):
            return np.stack([arr[dx:m0 + dx, dy:n1 - 1 + dy, dz:n2 - 1 + dz]
                             for dx, dy, dz in _CORNER_OFFSETS])

        cr, ci = corner_stack(re), corner_stack(im)
        mask = ((cr.min(axis=0) <= 0) & (cr.max(axis=0) >= 0)
                & (ci.min(axis=0) <= 0) & (ci.max(axis=0) >= 0))
        if min_amp > 0:
            amp = np.sqrt(cr * cr + ci * ci).max(axis=0)
            mask &= amp > min_amp
        idx = np.argwhere(mask)
        if len(idx):
            idx[:, 0] += lo
            out.append(idx)
    return np.vstack(out) if out else np.zeros((0, 3), dtype=int)


def _march(axes, values, min_amp=0.0):
    """Segments of the piecewise-linear zero set, as face-key pairs.

    Returns (segments, face_points) where each segment is a frozenset pair
    of face keys and face_points maps a face key to its zero coordinates.
    """
    ax0, ax1, ax2 = axes
    face_points = {}
    segments = []
    for i, j, k in _candidate_cells(values, min_amp):
        ids = []
        coords = []
        vals = []
        for dx, dy, dz in _CORNER_OFFSETS:
            gi, gj, gk = i + dx, j + dy, k + dz
            ids.append((gi, gj, gk))
            coords.append(np.array([ax0[gi], ax1[gj], ax2[gk]]))
            vals.append(complex(values[gi, gj, gk]))
        for tet in _KUHN_TETS:
            hits = []
            for omit in range(4):
                tri = tuple(tet[t] for t in range(4) if t != omit)
                key = frozenset(ids[v] for v in tri)
                if key in face_points:
                    pt = face_points[key]
                else:
                    pt = _face_zero([ids[v] for v in tri],
                                    [coords[v] for v in tri],
                                    [vals[v] for v in tri])
                    face_points[key] = pt
                if pt is not None:
                    hits.append(key)
            if len(hits) == 2:
                segments.append(frozenset(hits))
            elif len(hits) > 2:
                warnings.warn(f"degenerate tetrahedron at cell ({i},{j},{k}): "
                              f"{len(hits)} face zeros", stacklevel=2)
    return segments, face_points


def _chain(segments, face_points, allow_open=False):
    """Join segments sharing a face into polylines of face keys.

    Returns (loops, paths).  Chains that do not close are an error unless
    allow_open is set, in which case they come back as open paths (used
    when tracking filaments truncated at an amplitude floor).
    """
    adjacency = {}
    for seg in set(segments):
        a, b = sorted(seg, key=sorted)
        adjacency.setdefault(a, []).append(b)
        adjacency.setdefault(b, []).append(a)
    dangling = [k for k, nbrs in adjacency.items() if len(nbrs) != 2]
    if dangling and not allow_open:
        pts = [tuple(np.round(face_points[k], 6)) for k in sorted(dangling, key=sorted)]
        shown = ", ".join(str(p) for p in pts[:4])
        if len(pts) > 4:
            shown += f", ... ({len(pts)} total)"
        raise OpenChainError(
            f"{len(pts)} dangling nodal segment endpoints (raise the resolution "
            f"or extent): {shown}", pts)
    if any(len(nbrs) > 2 for nbrs in adjacency.values()):
        raise OpenChainError(
            "nodal segments form a junction (three or more chains meet); "
            "the sampling does not separate nearby strands", [])

    visited = set()

    def walk(start):
        # stops at the far end of a path, or just before closing a loop
        chain = [start]
        visited.add(start)
        prev, cur = None, start
        while True:
            nxt = [n for n in adjacency[cur] if n != prev]
            if not nxt or nxt[0] == start:
                return chain
            prev, cur = cur, nxt[0]
            chain.append(cur)
            visited.add(cur)

    ends = sorted((k for k in adjacency if len(adjacency[k]) == 1), key=sorted)
    paths = [walk(k) for k in ends if k not in visited]
    loops = [walk(k) for k in sorted(adjacency, key=sorted) if k not in visited]
    return loops, paths


def _refine_vertex(g, p, tangent, step_clamp, h):
    """Damped Newton on (Re g, Im g) in the plane normal to tangent."""
    t = tangent / (np.linalg.norm(tangent) or 1.0)
    # orthonormal basis of the normal plane
    probe = np.array([1.0, 0.0, 0.0]) if abs(t[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = np.cross(t, probe)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(t, e1)
    p = p.copy()
    fv = complex(g(p))
    for _ in range(NEWTON_MAX_STEPS):
        if abs(fv) < NEWTON_TARGET:
            break
        d1 = (complex(g(p + h * e1)) - complex(g(p - h * e1))) / (2 * h)
        d2 = (complex(g(p + h * e2)) - complex(g(p - h * e2))) / (2 * h)
        jac = np.array([[d1.real, d2.real], [d1.imag, d2.imag]])
        det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
        norm = abs(jac).max()
        if norm == 0 or abs(det) < (norm ** 2) / CONDITION_WARN:
            warnings.warn(f"near-degenerate Jacobian at {p.tolist()}: "
                          "transversality may fail here", stacklevel=2)
            break
        rhs = -np.array([fv.real, fv.imag])
        s1 = (rhs[0] * jac[1, 1] - rhs[1] * jac[0, 1]) / det
        s2 = (jac[0, 0] * rhs[1] - jac[1, 0] * rhs[0]) / det
        step = s1 * e1 + s2 * e2
        ln = np.linalg.norm(step)
        if ln > step_clamp:
            step *= step_clamp / ln
        damp = 1.0
        while damp > 1e-3:
            cand = p + damp * step
            fc = complex(g(cand))
            if abs(fc) < abs(fv):
                p, fv = cand, fc
                break
            damp *= 0.5
        else:
            break  # stall
    return p, abs(fv)


def extract_from_samples(values, axes, min_amp=0.0, chart="box",
                         allow_open=False) -> NodalCurve:
    """Extraction core on precomputed samples.

    Vertices lie on the piecewise-linear zero set, so every residual is 0
    by construction of the interpolant.  allow_open keeps chains that do
    not close (filaments truncated at the min_amp floor) instead of
    raising.
    """
    segments, face_points = _march(axes, values, min_amp=min_amp)
    loops, paths = _chain(segments, face_points, allow_open=allow_open)
    components = []
    flags = []
    for chain, closed in [(c, True) for c in loops] + [(c, False) for c in paths]:
        pts = np.array([face_points[key] for key in chain])
        components.append(np.vstack([pts, pts[:1]]) if closed else pts)
        flags.append(closed)
    return NodalCurve(tuple(components), chart, 0.0,
                      tuple(np.zeros(len(c)) for c in components), tuple(flags))


# Deterministic grid dilations tried when the sampling lattice happens to
# be degenerate (the curve passing exactly through a cell face makes the
# marched segments inconsistent).  The offsets are arbitrary but fixed.
_RETRY_DILATIONS = (1.0, 1.0000701, 0.9999303, 1.0002107)


def extract(f, grid: SampleGrid) -> NodalCurve:
    """The piecewise-linear nodal curve of a ComplexField in a stereographic chart.

    On a degenerate lattice (open chains, or a tetrahedron with more than
    two face zeros) the grid is dilated and sampled again.  Pass the result
    to `refine` for vertices on the zero set of f itself.
    """
    if grid.chart == "box":
        raise KnotfieldError("use extract_from_samples for box-chart data")
    n = grid.resolution
    last_exc = None
    for dilation in _RETRY_DILATIONS:
        ax0 = np.linspace(-grid.extent * dilation, grid.extent * dilation, n)
        ax = (ax0, ax0, ax0)
        values = np.empty((n, n, n), dtype=complex)
        for lo in range(0, n, 64):  # slab-wise evaluation bounds peak memory
            hi = min(lo + 64, n)
            u = np.stack(np.meshgrid(ax[0][lo:hi], ax[1], ax[2], indexing="ij"),
                         axis=-1)
            z, w = embed(grid, u)
            values[lo:hi] = f(z, w)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", UserWarning)
                return extract_from_samples(values, ax, chart=grid.chart)
        except (OpenChainError, UserWarning) as exc:
            last_exc = exc
    if isinstance(last_exc, OpenChainError):
        raise last_exc
    raise OpenChainError(f"degenerate sampling at every retry dilation: {last_exc}", [])


def refine(curve: NodalCurve, f, grid: SampleGrid) -> NodalCurve:
    """Newton-sharpen every vertex of `extract(f, grid)` onto the zero set of f.

    Steps are clamped to half the spacing of grid's undilated lattice.
    Components, vertex counts and closed flags are kept; the residual is the
    largest |f| left at any vertex.  A vertex where the Jacobian is
    near-degenerate (transversality may fail) stops with a UserWarning.
    """
    def evaluator(p):
        zz, ww = embed(grid, p)
        return f(zz, ww)

    ax0 = grid.axes()[0]
    spacing = float(ax0[1] - ax0[0])
    components = []
    vertex_abs = []
    for ci, comp in enumerate(curve.components):
        closed = curve.is_closed(ci)
        pts = comp[:-1] if closed else comp
        k = len(pts)
        out, res = np.empty_like(pts), np.zeros(k)
        for idx in range(k):
            if closed:
                tangent = pts[(idx + 1) % k] - pts[idx - 1]
            else:
                tangent = pts[min(idx + 1, k - 1)] - pts[max(idx - 1, 0)]
            out[idx], res[idx] = _refine_vertex(evaluator, pts[idx], tangent,
                                                step_clamp=spacing / 2.0, h=spacing * 1e-3)
        if closed:
            out, res = np.vstack([out, out[:1]]), np.append(res, res[0])
        components.append(out)
        vertex_abs.append(res)
    residual = max((float(r.max()) for r in vertex_abs if len(r)), default=0.0)
    return NodalCurve(tuple(components), curve.chart, residual, tuple(vertex_abs),
                      curve.closed_flags)


def sample_fiber(f, theta, grid: SampleGrid, band: float = 0.05,
                 nodal_tol: float = 1e-3):
    """Grid points whose field phase is within `band` of theta.

    Returns an (m, 4) array of chart coordinates plus |f|; points with
    |f| <= nodal_tol are excluded (phase undefined near the nodal set).
    """
    ax = grid.axes()
    u = np.stack(np.meshgrid(*ax, indexing="ij"), axis=-1)
    z, w = embed(grid, u)
    values = np.asarray(f(z, w), dtype=complex)
    mag = np.abs(values)
    ph = np.angle(values)  # (-pi, pi]
    diff = np.angle(np.exp(1j * (ph - theta)))  # wrapped distance to theta
    mask = (np.abs(diff) <= band) & (mag > nodal_tol)
    pts = u[mask]
    return np.column_stack([pts, mag[mask]])


def fiber_to_csv(cloud) -> str:
    buf = io.StringIO()
    wr = csv.writer(buf, lineterminator="\n")
    wr.writerow(["x", "y", "z", "abs_f"])
    for row in cloud:
        wr.writerow([f"{v:.12g}" for v in row])
    return buf.getvalue()


def closure_gaps(curve: NodalCurve):
    """First-to-last vertex gap of every component (zero when closed)."""
    return [float(np.linalg.norm(pts[0] - pts[-1])) for pts in curve.components]


def hausdorff(a, b) -> float:
    """Symmetric Hausdorff distance between two point sets (m,3) and (k,3)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if len(a) == 0 or len(b) == 0:
        return float("inf") if len(a) != len(b) else 0.0
    d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=-1)
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))
