"""Nodal-curve extraction: the zero set of a complex field as closed polylines.

Pipeline: sample the field on a regular grid in a chart, split each cell
into six tetrahedra around a consistent main diagonal, intersect the zero
line of the per-tet linear interpolant with the tet faces, chain segments
by shared faces into closed loops: `extract` returns this piecewise-linear
zero set.  `refine` then sharpens every vertex with damped Newton steps in
the plane normal to the local tangent; only `field extract` runs it.  Both
return a `NodalCurve` with every field given: per component its vertices,
their |f| (zero before refinement) and whether it closes up; only
`NodalCurve` adds and strips a closed component's repeated first vertex.
`extract` samples again only on the march's degenerate-tetrahedron warning.

Both work on whole arrays.  The march solves the 18 distinct faces of every
candidate cell (12 on its boundary, 6 inside it that two tetrahedra share)
in one pass, from one table built at import, counts each tetrahedron's
zeros through a map from its 4 faces to those 18, and sorts only the faces
that hold a zero, keyed by lowest lattice vertex and shape; Newton
iterates all vertices together, with one field evaluation per batch of
points.  Chaining sorts the segment pairs as packed integer keys, drops
equal neighbours, and takes each face's degree and its two neighbours from
what is left, so that dangling ends and junctions are found on arrays and
the walk reads plain int lists, with no dict per face.  The per-cell,
per-vertex and per-face loops they replaced are kept in tests/oracles.py
as the reference the tests compare against.

Sampling and the candidate scan are one pass over the lattice, in O(n^2)
memory.  Sampling is one slab loop (`lattice_slabs`) that yields x-slabs
sized in points, about 2^15 per slab, so each slab's `embed` outputs and
field temporaries stay in cache, half a MiB per complex temporary; larger
slabs sample no faster and only raise the peak.  Every value takes the
same elementwise operations as on the whole cube, so the samples are
bit-identical to one whole-cube evaluation, the tests' oracle.  `embed`
writes each real component of (z, w) straight into its complex outputs,
with the same bits as the per-component formula.  `extract` streams the
slabs into the candidate scan, which reads each slab where it lies,
carries its last plane of sign codes and of values into the next, and
keeps each candidate cell with its 8 corner values; the march reads its
face values from that table, so no n^3 cube is held.  The scan packs the
signs of Re and Im of each lattice point into one 16-bit code, adds NaN
flags only to a slab that holds a NaN, and ORs the codes over every
cell's corners; a cell is kept when both parts straddle zero and neither
is NaN, as the min/max rule in the oracle decides.  An array (an evolved
box) is read in x-slabs of the same SAMPLE_SLAB points, so one slab size
serves sampling, the scan and `sample_fiber`, which filters the sampled
stream slab by slab; only the evolution box, a state, is sampled whole.

Charts: S^3 = {|z|^2 + |w|^2 = r^2} in R^4 with coordinates
(x0, x1, x2, x3) = (Re z, Im z, Re w, Im w), stereographically projected
from the poles (+-r, 0, 0, 0).  The library fields as shipped are nonzero
at both poles, so the two charts each see the whole nodal set, near
|u| = 1; a U(2)-rotated field need not be, and can fall out of a chart.
"""

from __future__ import annotations

import math
import sys
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, replace

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
CONDITION_WARN = 1e8
# lattice points per x-slab of sampling and of the candidate scan: slabs
# stay in cache, at 512 KiB per complex temporary
SAMPLE_SLAB = 1 << 15
_DEGENERATE = "degenerate tetrahedron"  # `_march`'s warning, the only one `extract` retries
FIBER_NODAL_TOL = 1e-3  # `sample_fiber` drops points with |f| at or below this
_HAUSDORFF_PAIRS = 1 << 16  # point pairs per block of `hausdorff`


def check_cube_size(n: int) -> None:
    """Reject an n^3 lattice of complex samples that no process can address."""
    if n ** 3 * 16 > sys.maxsize:
        raise KnotfieldError(f"resolution {n} is too large: {n}^3 complex samples "
                             f"exceed the largest array this platform can address")


def check_chart_extent(extent: float, what: str) -> None:
    """Reject chart coordinates up to `extent` in absolute value that
    overflow `embed`, whose s = 1 + x*x + y*y + z*z reaches 1 + 3*extent^2
    at the lattice corners; `what` names the offending input."""
    if not math.isfinite(1.0 + 3.0 * (extent * extent)):
        raise KnotfieldError(f"{what} overflows the chart embedding "
                             f"(1 + 3*extent^2 is not finite)")


@contextmanager
def finite_values(what: str):
    """A block under numpy's floating-point errors raised: an overflow, a
    division by zero or an invalid operation in it, or a Python float
    overflow, is one KnotfieldError naming `what`.  The check rides on the
    arithmetic, so it adds no pass over the values."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            yield
    except (FloatingPointError, OverflowError) as exc:
        raise KnotfieldError(f"{what} is out of floating-point range: {exc.args[-1]}") from None


@dataclass(frozen=True)
class SampleGrid:
    """Regular sampling lattice in the "north" or "south" stereographic chart of S^3.

    Box-lattice data (evolved fields) has no sphere behind it and goes
    straight to `extract_from_samples`.
    """

    chart: str = "north"
    resolution: int = 64
    extent: float = 3.0
    radius: float = 1.0

    def __post_init__(self):
        if self.chart not in ("north", "south"):
            raise KnotfieldError(f"unknown chart {self.chart!r}")
        if self.resolution < 16:
            raise KnotfieldError(f"resolution must be >= 16, got {self.resolution}")
        check_cube_size(self.resolution)
        if not (0 < self.extent < math.inf and 0 < self.radius < math.inf):
            raise KnotfieldError(f"extent and radius must be positive and finite, "
                                 f"got {self.extent} and {self.radius}")
        # with 1 + 3*extent^2 finite, the spacing is finite too
        check_chart_extent(self.extent, f"extent {self.extent}")

    def axes(self):
        ax = np.linspace(-self.extent, self.extent, self.resolution)
        return ax, ax, ax

    @property
    def spacing(self):
        return 2.0 * self.extent / (self.resolution - 1)


def embed(grid: SampleGrid, x, y, z):
    """Map chart coordinates x, y, z to the sphere point (z, w) in C^2.

    The three coordinates are broadcast against each other, so lattice
    axes shaped (m, 1, 1), (1, n, 1) and (1, 1, n) give the values on the
    whole (m, n, n) block; (m, 3) points pass as `*p.T`.

    With s = ((1 + x*x) + y*y) + z*z the four real components are
    x0 = (+-r*(s - 2))/s and xk = (2r*xk)/s, written straight into the real
    and imaginary parts of the two outputs: the same bits as the
    per-component formula combined as `x0 + 1j*x1, x2 + 1j*x3` wherever s
    is finite and no quotient underflows.  That sum turns an imaginary -0
    into +0 and gives a real -0 (x0 on the south chart's s = 2 sphere) the
    sign of its imaginary part's zero; the signed zeros added below do the
    same.
    """
    x, y, zc = (np.asarray(c, dtype=float) for c in (x, y, z))
    s = 1.0 + x * x + y * y + zc * zc
    r = grid.radius
    nx, ny, nz = 2.0 * r * x, 2.0 * r * y, 2.0 * r * zc
    zw = np.empty(s.shape, dtype=complex), np.empty(s.shape, dtype=complex)
    re0 = zw[0].real  # +-(|u|^2 - 1)/(|u|^2 + 1)
    np.divide((r if grid.chart == "north" else -r) * (s - 2.0), s, out=re0)
    np.add(re0, 0.0 * nx - 0.0, out=re0)
    np.divide(nx + 0.0, s, out=zw[0].imag)
    np.divide(ny + (0.0 * nz - 0.0), s, out=zw[1].real)
    np.divide(nz + 0.0, s, out=zw[1].imag)
    return zw


def lattice_slabs(f, grid: SampleGrid, axes, taper=None):
    """The complex values of f(*embed(grid, x, y, z)) on the lattice of the
    three coordinate axes, times taper(planes) if given, as a stream of
    (lo, slab) pairs, slab holding the x-planes from lo on.

    The one slab loop over a lattice: x-slabs of max(1, SAMPLE_SLAB //
    (n1*n2)) planes, about 2^15 points, so that each slab's `embed`
    outputs, field temporaries and taper stay in cache.  The axes reach
    `embed` shaped (m,1,1), (1,n1,1) and (1,1,n2); taper receives the
    slice of x-planes and returns real factors that broadcast to the slab.
    Every value takes the same elementwise operations as in one evaluation
    on the whole cube, which the tests keep as the oracle, so the slabs are
    bit-identical to it.  A value that leaves the floating-point range
    raises KnotfieldError (`finite_values`, entered per slab and left
    before the slab is yielded, so the consumer runs under its own error
    state).
    """
    ax, ay, az = axes
    planes = max(1, SAMPLE_SLAB // (len(ay) * len(az)))
    y, z = ay[None, :, None], az[None, None, :]
    for lo in range(0, len(ax), planes):
        sl = slice(lo, lo + planes)
        with finite_values("the sampled field"):
            v = np.asarray(f(*embed(grid, ax[sl, None, None], y, z)), dtype=complex)
            if taper is not None:
                v = v * taper(sl)
        yield lo, v


def sample_lattice(f, grid: SampleGrid, axes, taper=None):
    """The (n0, n1, n2) complex values of `lattice_slabs`, as one array."""
    ax, ay, az = axes
    values = np.empty((len(ax), len(ay), len(az)), dtype=complex)
    for lo, v in lattice_slabs(f, grid, axes, taper):
        values[lo:lo + len(v)] = v
    return values


@dataclass(frozen=True)
class NodalCurve:
    """Polylines in chart coordinates; a closed one repeats its first vertex last.
    `_closing`, every curve's constructor, alone adds it; `vertices` alone strips it."""

    components: tuple  # tuple of (k, 3) float arrays
    chart: str
    residual: float  # max |f| over all vertices; 0 on the piecewise-linear set
    vertex_residuals: tuple  # per-vertex |f| arrays, parallel to components
    closed_flags: tuple  # per-component: True where it closes up

    @property
    def n_components(self):
        return len(self.components)

    @classmethod
    def _closing(cls, vertices, closed, chart, residuals=None):
        """The curve of per-component vertex arrays and closed flags: each
        closed component and its residuals (zero if not given) repeat their
        first entry last, and the residual is the largest of them."""
        def close(a, c):
            return np.concatenate([a, a[:1]]) if c else a
        res = tuple(map(close, residuals or [np.zeros(len(v)) for v in vertices], closed))
        return cls(tuple(map(close, vertices, closed)), chart,
                   max((float(r.max()) for r in res if len(r)), default=0.0), res, tuple(closed))

    def is_closed(self, i) -> bool:
        return bool(self.closed_flags[i])

    def vertices(self, i):
        """Component i without the repeated first vertex of a closed one."""
        return self.components[i][:-1] if self.is_closed(i) else self.components[i]

    def to_csv(self) -> str:
        lines = ["component,index,x,y,z,abs_f"]
        for ci, (pts, res) in enumerate(zip(self.components, self.vertex_residuals)):
            for i, (p, a) in enumerate(zip(pts, res)):
                lines.append(f"{ci},{i},{p[0]:.12g},{p[1]:.12g},{p[2]:.12g},{a:.6g}")
        return "\n".join(lines) + "\n"

    def to_obj(self) -> str:
        """Wavefront-style polyline export (v + l records)."""
        lines = []
        offset = 1
        for ci in range(self.n_components):
            pts = self.vertices(ci)
            for p in pts:
                lines.append(f"v {p[0]:.12g} {p[1]:.12g} {p[2]:.12g}")
            k = len(pts)
            idx = " ".join(str(offset + i) for i in range(k))
            lines.append(f"l {idx} {offset}" if self.is_closed(ci) else f"l {idx}")
            offset += k
        return "\n".join(lines) + "\n"


def _corner_or(code):
    """Bitwise OR of code over the 8 corners of every cell, one axis at a time."""
    for axis in range(3):
        head = (slice(None),) * axis + (slice(None, -1),)
        tail = (slice(None),) * axis + (slice(1, None),)
        code = code[head] | code[tail]
    return code


def _corner_ids(n1, n2):
    """Row-major offsets of a cell's 8 corners from its lowest one in an
    (n0, n1, n2) lattice, in the order of `_CORNER_OFFSETS`."""
    return np.array([dx * n1 * n2 + dy * n2 + dz for dx, dy, dz in _CORNER_OFFSETS])


def _scan(values, min_amp):
    """Cells whose corners straddle zero in both Re and Im, and their values.

    A cell straddles zero in Re when some corner has Re <= 0, some corner
    has Re >= 0 and no corner has a NaN Re (the min/max rule, NaN failing
    every comparison).  Each lattice point packs (v <= 0), (v >= 0) and
    isnan(v) for its Re into bits 0-2 of one byte and for its Im into the
    byte next to it, as uint16.  The codes are ORed over the 8 corners and
    a cell kept when both bytes read 0b011 under the mask 0b111; the test
    treats the two bytes alike, so byte order does not matter.  With
    min_amp > 0 a kept cell also needs a corner with sqrt(re*re + im*im) >
    min_amp.

    values is a stream of (lo, slab) x-slabs in order, as `lattice_slabs`
    yields them, none longer than the first, or an array, read in x-slabs
    of SAMPLE_SLAB points; each slab is read where it lies and a stream is
    never held whole.  The codes go through `out=` into one array, allocated
    at the first slab, whose plane 0 carries the previous slab's last code
    plane (NaN before the first slab, so no cell starts below plane 0); the
    NaN bits are computed only for a slab with a 0 byte, which only a NaN
    part leaves.  The corner values of the cells that straddle a slab
    boundary come from the carried value plane and the slab's first.
    Returns the (k, 3) cell indices and their (k, 8) corner values, corner
    b at offset `_CORNER_OFFSETS[b]`.
    """
    if isinstance(values, np.ndarray):
        arr, planes = values, max(1, SAMPLE_SLAB // max(1, values.shape[1] * values.shape[2]))
        values = ((lo, arr[lo:lo + planes]) for lo in range(0, len(arr), planes))
    cells, corners = [np.zeros((0, 3), dtype=int)], [np.zeros((0, 8), dtype=complex)]
    code = None
    for lo, slab in values:
        slab = np.ascontiguousarray(slab, dtype=complex)
        m, n1, n2 = slab.shape
        if code is None:
            code = np.full((m + 1, n1, n2), 0x0404, dtype=np.uint16)
            carry = np.empty((n1, n2), dtype=complex)  # the previous slab's last plane
        v, c = slab.view(float), code[1:m + 1]
        np.greater_equal(v, 0, out=c.view(bool))
        c <<= 1
        c |= (v <= 0).view(np.uint16)
        if not c.view(np.uint8).all():
            c |= np.isnan(v).view(np.uint16) << 2
        mask = (_corner_or(code[:m + 1]) & 0x0707) == 0x0303
        idx = np.column_stack(np.unravel_index(np.flatnonzero(mask), mask.shape))
        at = (idx @ (n1 * n2, n2, 1))[:, None] + _corner_ids(n1, n2) - n1 * n2
        vals = slab.reshape(-1)[at]
        # the first k cells straddle the boundary: their corners with dx = 0
        # (even b) lie in the carried plane, where `at` is negative and the
        # slab's far end was read in their place
        k = np.count_nonzero(mask[0])
        vals[:k, ::2] = carry.reshape(-1)[at[:k, ::2] + n1 * n2]
        if min_amp > 0:  # the floor, on the cells the sign test keeps
            re, im = vals.real, vals.imag
            amp = np.sqrt(re * re + im * im).max(axis=1)
            idx, vals = idx[amp > min_amp], vals[amp > min_amp]
        idx[:, 0] += lo - 1
        cells.append(idx)
        corners.append(vals)
        code[0], carry[...] = code[m], slab[-1]
    return np.vstack(cells), np.vstack(corners)


def _face_table():
    """The 18 distinct faces of a cell and the map from its six tetrahedra to them.

    The tetrahedra have 24 (tetrahedron, omitted vertex) faces: 12 lie on
    the cell's boundary, two per cube face, and 12 pair up into the 6
    interior faces that two tetrahedra share.  Each face's corners are
    sorted in row-major order (x slowest).  Within a Kuhn tetrahedron the
    corners differ by 0 or 1 per axis from the lowest one, so a face is
    fixed by its lowest lattice vertex plus a shape code < 64 built from the
    row-major offsets of the other two, and lowest-vertex-id * 64 + shape
    sorts faces as their sorted vertex-id triples sort.  Returns the (18, 3)
    corners, their (18,) shape codes and the (6, 4) map whose entry
    [t, omit] is the face of tetrahedron t without its vertex omit.
    """
    rank = [4 * dx + 2 * dy + dz for dx, dy, dz in _CORNER_OFFSETS]
    faces, tet_faces = {}, []  # faces: sorted corner triple -> face number
    for tet in _KUHN_TETS:
        tris = (tuple(sorted(set(tet) - {v}, key=rank.__getitem__)) for v in tet)
        tet_faces.append([faces.setdefault(tri, len(faces)) for tri in tris])
    corners = np.array(list(faces))
    r = np.array(rank)[corners]
    return corners, 8 * (r[:, 1] - r[:, 0]) + r[:, 2] - r[:, 0], np.array(tet_faces)


_FACE_CORNERS, _FACE_SHAPES, _TET_FACES = _face_table()


def _march(axes, values, min_amp=0.0):
    """Segments of the piecewise-linear zero set, as pairs of face indices.

    Returns (segments, points): points is the (h, 3) array of face zeros,
    one per face of a candidate cell whose interpolant vanishes on it,
    ordered by the face's sorted row-major vertex ids; segments is an
    (s, 2) int array of rows i < j into points, one per tetrahedron with
    exactly two such faces.  A tetrahedron with more warns and is skipped.
    values is an array or a slab stream, as `_scan` takes it.

    The march solves the 18 faces of every candidate cell (`_face_table`)
    in one pass over the scan's corner table, so no lattice is indexed;
    counts each tetrahedron's zeros through the face map; and sorts only
    the keys of the faces that hold a zero, to number the points.  A face
    that two cells share is solved in each from the same three values in
    the same corner order, so both solves give the same bits.
    """
    cells, corner_values = _scan(values, min_amp)

    # Zero of the linear interpolant on each face:
    # lam0*f0 + lam1*f1 + (1 - lam0 - lam1)*f2 = 0, all weights >= -1e-12.
    fv = corner_values[:, _FACE_CORNERS]  # (cells, 18, 3)
    re, im = fv.real, fv.imag
    a00, a01 = re[..., 0] - re[..., 2], re[..., 1] - re[..., 2]
    a10, a11 = im[..., 0] - im[..., 2], im[..., 1] - im[..., 2]
    b0, b1 = -re[..., 2], -im[..., 2]
    det = a00 * a11 - a01 * a10
    # negated comparisons: a NaN counts as a hit, as the per-face rule counted it
    solvable = ~(np.abs(det) < 1e-300)
    det = np.where(solvable, det, 1.0)
    l0 = (b0 * a11 - b1 * a01) / det
    l1 = (a00 * b1 - a10 * b0) / det
    l2 = 1.0 - l0 - l1
    hit = solvable & ~((l0 < -1e-12) | (l1 < -1e-12) | (l2 < -1e-12))  # (cells, 18)

    tet_hits = hit[:, _TET_FACES]  # (cells, 6, 4)
    count = tet_hits.sum(axis=2)
    for c, t in np.argwhere(count > 2):
        i, j, k = cells[c]
        warnings.warn(f"{_DEGENERATE} at cell ({i},{j},{k}): "
                      f"{count[c, t]} face zeros", stacklevel=2)

    # number the zero faces by key; a face two cells share appears twice
    n1, n2 = len(axes[1]), len(axes[2])
    hc, hf = np.nonzero(hit)
    lowest = cells[hc] @ np.array([n1 * n2, n2, 1]) + _corner_ids(n1, n2)[_FACE_CORNERS[hf, 0]]
    keys = lowest * 64 + _FACE_SHAPES[hf]
    order = np.argsort(keys)
    keys = keys[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    index = np.empty(hit.shape, dtype=int)  # point number of each zero face
    index[hc[order], hf[order]] = np.cumsum(first) - 1
    hc, hf = hc[order[first]], hf[order[first]]

    corner = cells[hc, None] + np.array(_CORNER_OFFSETS)[_FACE_CORNERS][hf]  # (h, 3, 3)
    coords = np.stack([axes[0][corner[..., 0]], axes[1][corner[..., 1]],
                       axes[2][corner[..., 2]]], axis=-1)  # (h, 3 vertices, 3 axes)
    w0, w1, w2 = l0[hc, hf, None], l1[hc, hf, None], l2[hc, hf, None]
    points = w0 * coords[:, 0] + w1 * coords[:, 1] + w2 * coords[:, 2]

    pairs = count == 2
    segments = index[:, _TET_FACES][pairs][tet_hits[pairs]].reshape(-1, 2)
    return np.sort(segments, axis=1), points


def _chain(segments, points, allow_open=False):
    """Join segments sharing a face into polylines of face indices.

    Returns (loops, paths).  A path starts at its lower-indexed end and a
    loop at its lowest face, walking first to that face's lower neighbour.
    Chains that do not close are an error unless allow_open is set, in
    which case they come back as open paths (used when tracking filaments
    truncated at an amplitude floor).

    The adjacency is built on arrays: the distinct directed pairs, sorted,
    give each face its degree and its lower and higher neighbour (-1 for
    none), and the walk reads those as plain int lists.
    """
    # both directions of every segment as one key a*H + b, ascending as (a, b)
    # pairs; sorted, with equal neighbours dropped: np.unique without return
    # flags hashes, and its hash path imports numpy.ma
    h = len(points)
    keys = np.sort(np.concatenate([segments[:, 0] * h + segments[:, 1],
                                   segments[:, 1] * h + segments[:, 0]]))
    distinct = np.ones(len(keys), dtype=bool)
    distinct[1:] = keys[1:] != keys[:-1]
    keys = keys[distinct]
    source, target = keys // h, keys % h
    faces, first, degree = np.unique(source, return_index=True, return_counts=True)
    dangling = faces[degree != 2].tolist()
    if dangling and not allow_open:
        pts = [tuple(np.round(points[k], 6).tolist()) for k in dangling]
        shown = ", ".join(str(p) for p in pts[:4])
        if len(pts) > 4:
            shown += f", ... ({len(pts)} total)"
        raise OpenChainError(
            f"{len(pts)} dangling nodal segment endpoints (raise the resolution "
            f"or extent): {shown}", pts)
    if (degree > 2).any():
        raise OpenChainError(
            "nodal segments form a junction (three or more chains meet); "
            "the sampling does not separate nearby strands", [])

    lo, hi = np.full(h, -1), np.full(h, -1)
    lo[faces] = target[first]
    pair = degree == 2
    hi[faces[pair]] = target[first[pair] + 1]
    lo, hi = lo.tolist(), hi.tolist()
    visited = [False] * h

    def walk(start):
        # stops at the far end of a path, or just before closing a loop
        chain = [start]
        visited[start] = True
        prev, cur = -1, start
        while True:
            nxt = lo[cur] if lo[cur] != prev else hi[cur]
            if nxt < 0 or nxt == start:
                return chain
            prev, cur = cur, nxt
            chain.append(cur)
            visited[cur] = True

    faces = faces.tolist()
    # with no junction, every dangling face is the end of a path
    paths = [walk(k) for k in dangling if not visited[k]]
    loops = [walk(k) for k in faces if not visited[k]]
    return loops, paths


def _newton(g, p, tangent, step_clamp, h):
    """Damped Newton on (Re g, Im g) in the plane normal to each tangent.

    p and tangent are (m, 3); g maps (k, 3) points to k complex values and
    is called once per batch.  A point stops when |g| < NEWTON_TARGET, when
    its Jacobian is near-degenerate (a UserWarning), when no step of
    length down to 1e-3 of the Newton step lowers |g| (a stall), or after
    NEWTON_MAX_STEPS steps.  Returns the points and their |g|.
    """
    norm = np.linalg.norm(tangent, axis=1, keepdims=True)
    t = tangent / np.where(norm == 0, 1.0, norm)
    # orthonormal basis of each normal plane
    probe = np.where(np.abs(t[:, :1]) < 0.9, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    e1 = np.cross(t, probe)
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    e2 = np.cross(t, e1)
    p = p.copy()
    fv = g(p)
    live = np.ones(len(p), dtype=bool)
    degenerate = np.zeros(len(p), dtype=bool)  # stopped in place; warned about below
    for _ in range(NEWTON_MAX_STEPS):
        live &= ~(np.abs(fv) < NEWTON_TARGET)
        idx = np.flatnonzero(live)
        if not len(idx):
            break
        q, u1, u2 = p[idx], h * e1[idx], h * e2[idx]
        gp1, gm1, gp2, gm2 = np.split(g(np.concatenate([q + u1, q - u1, q + u2, q - u2])), 4)
        d1, d2 = (gp1 - gm1) / (2 * h), (gp2 - gm2) / (2 * h)
        j00, j01, j10, j11 = d1.real, d2.real, d1.imag, d2.imag
        det = j00 * j11 - j01 * j10
        jnorm = np.maximum.reduce([np.abs(j00), np.abs(j01), np.abs(j10), np.abs(j11)])
        bad = (jnorm == 0) | (np.abs(det) < (jnorm ** 2) / CONDITION_WARN)
        degenerate[idx[bad]] = True
        live[idx[bad]] = False
        ok = ~bad
        idx, det, f0 = idx[ok], det[ok], fv[idx[ok]]
        j00, j01, j10, j11 = j00[ok], j01[ok], j10[ok], j11[ok]
        r0, r1 = -f0.real, -f0.imag
        s1 = (r0 * j11 - r1 * j01) / det
        s2 = (j00 * r1 - j10 * r0) / det
        step = s1[:, None] * e1[idx] + s2[:, None] * e2[idx]
        ln = np.linalg.norm(step, axis=1)
        over = ln > step_clamp
        step[over] *= (step_clamp / ln[over])[:, None]
        damp = 1.0
        while damp > 1e-3 and len(idx):
            cand = p[idx] + damp * step
            fc = g(cand)
            better = np.abs(fc) < np.abs(fv[idx])
            p[idx[better]], fv[idx[better]] = cand[better], fc[better]
            idx, step = idx[~better], step[~better]
            damp *= 0.5
        live[idx] = False  # stalled
    for q in p[degenerate]:
        warnings.warn(f"near-degenerate Jacobian at {q.tolist()}: "
                      "transversality may fail here", stacklevel=2)
    return p, np.abs(fv)


def extract_from_samples(values, axes, min_amp=0.0, chart="box",
                         allow_open=False) -> NodalCurve:
    """Extraction core on samples: an (n0, n1, n2) array, or a stream of
    x-slabs as `lattice_slabs` yields them, read once.

    Every candidate cell's faces are marched at once (see `_march`), and
    segments are chained on integer face indices.  Vertices lie on the
    piecewise-linear zero set, so every residual is 0 by construction of
    the interpolant.  allow_open keeps chains that do not close (filaments
    truncated at the min_amp floor) instead of raising.
    """
    segments, points = _march(axes, values, min_amp=min_amp)
    loops, paths = _chain(segments, points, allow_open=allow_open)
    return NodalCurve._closing([points[c] for c in loops + paths],
                               [True] * len(loops) + [False] * len(paths), chart)


# Deterministic grid dilations tried when the sampling lattice happens to
# be degenerate (the curve passing exactly through a cell face makes the
# marched segments inconsistent).  The offsets are arbitrary but fixed.
# Every retry lattice is also shifted by _RETRY_SHIFT cells along each
# axis: a dilation about the origin keeps an odd lattice's x = 0, y = 0
# and z = 0 planes, where symmetric fields have exact zeros.
_RETRY_DILATIONS = (1.0, 1.0000701, 0.9999303, 1.0002107)
_RETRY_SHIFT = 0.382


def extract(f, grid: SampleGrid) -> NodalCurve:
    """The piecewise-linear nodal curve of a ComplexField in a stereographic chart.

    On a degenerate lattice (open chains, or a tetrahedron with more than
    two face zeros) the grid is dilated, shifted off the origin by a
    fraction of a cell and sampled again.  Only the march's `_DEGENERATE`
    warning marks the second case; any other warning reaches the caller.
    Pass the result to `refine` for vertices on the zero set of f itself.

    Each attempt streams its lattice slabs (`lattice_slabs`) through the
    candidate scan, so no n^3 cube is held.  The march runs under
    `finite_values`: samples too large for its face solve are one
    KnotfieldError.
    """
    last_exc = None
    for attempt, dilation in enumerate(_RETRY_DILATIONS):
        lattice = replace(grid, extent=grid.extent * dilation)
        ax = lattice.axes()
        if attempt:
            ax = tuple(a + _RETRY_SHIFT * lattice.spacing for a in ax)
        slabs = lattice_slabs(f, lattice, ax)
        try:
            with warnings.catch_warnings(), finite_values("the interpolated field"):
                warnings.filterwarnings("error", _DEGENERATE, UserWarning)
                return extract_from_samples(slabs, ax, chart=grid.chart)
        except (OpenChainError, UserWarning) as exc:
            if isinstance(exc, UserWarning) and not str(exc).lower().startswith(_DEGENERATE):
                raise  # the field's own warning, made an error by the caller's filters
            last_exc = exc
    if isinstance(last_exc, OpenChainError):
        raise last_exc
    raise OpenChainError(f"degenerate sampling at every retry dilation: {last_exc}", [])


def refine(curve: NodalCurve, f, grid: SampleGrid) -> NodalCurve:
    """Newton-sharpen every vertex of `extract(f, grid)` onto the zero set of f.

    All vertices of all components iterate together (see `_newton`), with
    one field evaluation per batch of points.  Steps are clamped to half
    the spacing of grid's undilated lattice.  Components, vertex counts and
    closed flags are kept; the residual is the largest |f| left at any
    vertex.  A vertex where the Jacobian is near-degenerate (transversality
    may fail) stops with a UserWarning.
    """
    ax0 = grid.axes()[0]
    spacing = float(ax0[1] - ax0[0])
    pts = [curve.vertices(i) for i in range(curve.n_components)]
    if not pts:
        return curve
    tangents = [np.roll(c, -1, axis=0) - np.roll(c, 1, axis=0) if curve.is_closed(i)
                else np.vstack([c[1:], c[-1:]]) - np.vstack([c[:1], c[:-1]])
                for i, c in enumerate(pts)]  # one-sided at the ends of an open component
    out, res = _newton(lambda p: f(*embed(grid, *p.T)), np.concatenate(pts),
                       np.concatenate(tangents), step_clamp=spacing / 2.0, h=spacing * 1e-3)
    splits = np.cumsum([len(c) for c in pts])[:-1]
    return NodalCurve._closing(np.split(out, splits), curve.closed_flags, curve.chart,
                               np.split(res, splits))


def sample_fiber(f, theta, grid: SampleGrid, band: float = 0.05):
    """Grid points whose field phase is within `band` of theta.

    Returns an (m, 4) array of chart coordinates plus |f|; points with
    |f| <= FIBER_NODAL_TOL are excluded (phase undefined near the nodal set).
    Each slab of `lattice_slabs` is filtered as it is sampled, so the
    working memory is O(n^2) besides the cloud.
    """
    if not math.isfinite(theta):
        raise KnotfieldError(f"theta must be finite, got {theta}")
    if not 0 <= band < math.inf:
        raise KnotfieldError(f"band must be finite and nonnegative, got {band}")
    ax = grid.axes()
    parts = []
    for lo, v in lattice_slabs(f, grid, ax):
        mag = np.abs(v)
        diff = np.angle(np.exp(1j * (np.angle(v) - theta)))  # wrapped distance to theta
        i, j, k = np.nonzero((np.abs(diff) <= band) & (mag > FIBER_NODAL_TOL))
        parts.append(np.column_stack([ax[0][lo + i], ax[1][j], ax[2][k], mag[i, j, k]]))
    return np.vstack(parts)


def fiber_to_csv(cloud) -> str:
    lines = ["x,y,z,abs_f"]
    lines.extend(",".join(f"{v:.12g}" for v in row) for row in cloud)
    return "\n".join(lines) + "\n"


def hausdorff(a, b) -> float:
    """Symmetric Hausdorff distance between two point sets (m,3) and (k,3).

    Squared distances are taken over blocks of `a`'s rows, so no (m, k, 3)
    temporary is built; the minima are taken of the squares and the square
    root last, which gives the distance of the whole-matrix formula bit for
    bit (the root is monotone, and each square is summed as x + y, then + z).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if len(a) == 0 or len(b) == 0:
        return float("inf") if len(a) != len(b) else 0.0
    rows = max(1, _HAUSDORFF_PAIRS // len(b))
    to_b = np.empty(len(a))  # squared distance of each point of a to b
    to_a = np.full(len(b), np.inf)  # and of each point of b to a
    for start in range(0, len(a), rows):
        block = a[start:start + rows]
        sq = np.subtract.outer(block[:, 0], b[:, 0])
        sq *= sq
        for axis in (1, 2):
            d = np.subtract.outer(block[:, axis], b[:, axis])
            d *= d
            sq += d
        to_b[start:start + rows] = sq.min(axis=1)
        np.minimum(to_a, sq.min(axis=0), out=to_a)
    return float(max(np.sqrt(to_b.max()), np.sqrt(to_a.max())))
