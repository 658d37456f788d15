"""Knot-type verification of extracted nodal curves.

A closed polyline is projected along a generic direction, crossings are
read off with over/under from projection depth, the resulting planar
diagram is simplified by R1/R2 reductions, and its Jones polynomial is
compared with the expected knot's (up to mirror, since neither the charts
nor the projection fix a chirality convention).  Reduction makes one move
at a time, R1 before R2, at the lowest crossing and the first edge; that
order fixes the reduced diagram.

Crossings are found in one array pass: a sort-and-sweep over the projected
segments' padded bounding boxes yields the candidate pairs, and every
candidate is tested at once, in (i, j) order.  A projection that grazes a
vertex, ties in depth or nearly triple-crosses raises, and the direction
is nudged through a fixed sequence.  The per-segment loop this replaced is
kept in tests/oracles.py; events and errors match it exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .errors import KnotfieldError, NonGenericProjectionError
from .diagram import Crossing, PlanarDiagram, from_traversal, jones, to_diagram
from .laurent import LaurentPolynomial
from .mosaic import Mosaic

PROJECTION_START = (1.0, 0.618, 0.382)
MAX_RETRIES = 32


def _frame(direction):
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    probe = np.array([0.0, 0.0, 1.0]) if abs(d[2]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = np.cross(d, probe)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(d, e1)
    return d, e1, e2


def _crossing_events(pts2, depth, scale):
    """All transverse intersections among segments of a closed polyline.

    pts2: (k, 2) projected vertices (not closed); segment i joins vertex i
    to vertex (i+1) mod k.  Returns a list of
    (seg_i, param_i, seg_j, param_j, over_is_i) with i < j, in (i, j) order,
    or raises on a non-generic configuration.

    Candidate pairs come from one sort-and-sweep over the segments'
    bounding boxes: sorted by min-x, each box's x-overlaps are one
    `searchsorted` range, and the pairs whose y-ranges also overlap are
    kept.  Every box is padded by twice `eps_t` times the largest
    coordinate extent of any segment, so a hit with a parameter in
    (-eps_t, 1 + eps_t) is never dropped, even after rounding in t and s.
    Segments that share a vertex (j = i + 1, and the pair (0, k - 1)) are
    never paired.  All candidates are then tested at once with the
    per-segment loop's formulas (kept in tests/oracles.py), so parameters
    and depths are bit-equal to it.  The first grazing or depth-tied hit in
    (i, j) order raises with that loop's message, so retries take the same
    directions; then any two crossings that nearly coincide raise as a
    triple point.
    """
    k = len(pts2)
    a = pts2
    b = pts2[(np.arange(k) + 1) % k]
    d = b - a
    eps_par = 1e-9 * scale * scale
    eps_t = 1e-6

    pad = 2.0 * eps_t * float(np.abs(d).max(initial=0.0))
    lo, hi = np.minimum(a, b) - pad, np.maximum(a, b) + pad
    order = np.argsort(lo[:, 0], kind="stable")
    lo_x = lo[order, 0]
    stop = np.searchsorted(lo_x, hi[order, 0], side="right")
    count = np.maximum(stop - np.arange(1, k + 1), 0)
    first = np.repeat(np.arange(k), count)
    second = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count) + first + 1
    p, q = order[first], order[second]
    i, j = np.minimum(p, q), np.maximum(p, q)
    keep = ((lo[p, 1] <= hi[q, 1]) & (lo[q, 1] <= hi[p, 1])
            & (j > i + 1) & ~((i == 0) & (j == k - 1)))
    i, j = i[keep], j[keep]
    by_pair = np.lexsort((j, i))
    i, j = i[by_pair], j[by_pair]

    di, dj = d[i], d[j]
    rel = a[j] - a[i]
    denom = di[:, 0] * dj[:, 1] - di[:, 1] * dj[:, 0]
    ok = np.abs(denom) > eps_par
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = (rel[:, 0] * dj[:, 1] - rel[:, 1] * dj[:, 0]) / denom
        s = (rel[:, 0] * di[:, 1] - rel[:, 1] * di[:, 0]) / denom
    hit = ok & (t > -eps_t) & (t < 1 + eps_t) & (s > -eps_t) & (s < 1 + eps_t)
    i, j, t, s = i[hit], j[hit], t[hit], s[hit]
    zi = depth[i] + t * (depth[(i + 1) % k] - depth[i])
    zj = depth[j] + s * (depth[(j + 1) % k] - depth[j])
    grazes = (t < eps_t) | (1 - t < eps_t) | (s < eps_t) | (1 - s < eps_t)
    ties = np.abs(zi - zj) < 1e-9 * scale
    bad = np.flatnonzero(grazes | ties)
    if len(bad):
        m = bad[0]
        if grazes[m]:
            raise NonGenericProjectionError(
                f"intersection grazes a vertex (segments {i[m]}, {j[m]})")
        raise NonGenericProjectionError(
            f"depths coincide at crossing of segments {i[m]}, {j[m]}")
    points = a[i] + t[:, None] * di[hit]
    r, c = np.triu_indices(len(points), 1)
    if len(r) and np.linalg.norm(points[c] - points[r], axis=1).min() < 1e-6 * scale:
        raise NonGenericProjectionError("two crossings nearly coincide (triple point)")
    return list(zip(i.tolist(), t.tolist(), j.tolist(), s.tolist(), (zi > zj).tolist()))


def project_diagram(points) -> PlanarDiagram:
    """Project a closed polyline to a planar diagram along a generic direction.

    A last vertex that repeats the first, to within 1e-9 of the polyline's
    extent, is dropped.  The starting direction is fixed; on a non-generic
    configuration the direction is nudged through a fixed pseudo-random
    sequence, so results are deterministic across runs.
    """
    pts = np.asarray(points, dtype=float)
    if len(pts) > 1 and np.abs(pts[-1] - pts[0]).max() <= 1e-9 * np.ptp(pts, axis=0).max():
        pts = pts[:-1]
    if len(pts) < 3:
        raise KnotfieldError("polyline too short to project")
    scale = float(np.ptp(pts, axis=0).max()) or 1.0
    rng = random.Random(20240618)
    direction = np.asarray(PROJECTION_START, dtype=float)
    last_err = None
    for _ in range(MAX_RETRIES):
        try:
            d, e1, e2 = _frame(direction)
            pts2 = np.column_stack([pts @ e1, pts @ e2])
            depth = pts @ d
            events = _crossing_events(pts2, depth, scale)
            seg = np.roll(pts2, -1, axis=0) - pts2
            # both passages of every crossing, in order along the curve
            passages = sorted(p for cid, (i, ti, j, tj, over_is_i) in enumerate(events)
                              for p in ((i, ti, cid, over_is_i), (j, tj, cid, not over_is_i)))
            return from_traversal([[(cid, over, seg[s]) for s, _, cid, over in passages]])
        except NonGenericProjectionError as err:
            last_err = err
            direction = direction + np.array([rng.uniform(-0.05, 0.05) for _ in range(3)])
    raise NonGenericProjectionError(
        f"no generic projection after {MAX_RETRIES} retries: {last_err}")


# ---------------------------------------------------------------------------
# R1/R2 diagram reduction


def _renumber(crossings, free_loops, n_components):
    """Rebuild a PlanarDiagram with dense edge ids."""
    ids = {}
    for x in crossings:
        for e in x.ends:
            ids.setdefault(e, len(ids) + 1)
    xs = tuple(Crossing(tuple(ids[e] for e in x.ends), x.over_in) for x in crossings)
    return PlanarDiagram(xs, free_loops, n_components)


def _first_move(crossings):
    """The first R1 or R2 move on crossings, as (indices of the crossings
    to delete, pairs (u, v) of edge ends to join, v renamed u), or None.

    A kink (an edge at two ccw-adjacent ends) comes first: at the lowest
    crossing, at its first such position.  Otherwise the first bigon: two
    crossings sharing edges e and b at odd distance at both, with e over at
    both or under at both, taking e in order of first appearance.
    """
    for i, x in enumerate(crossings):
        for p in range(4):
            if x.ends[p] == x.ends[(p + 1) % 4]:
                return (i,), [(x.ends[(p + 2) % 4], x.ends[(p + 3) % 4])]
    where = {}
    for i, x in enumerate(crossings):
        for e in set(x.ends):
            where.setdefault(e, []).append(i)
    for e, pair in where.items():
        if len(pair) != 2:
            continue
        x, y = (crossings[i] for i in pair)
        for b in set(x.ends) & set(y.ends):
            px, bx, py, by = x.ends.index(e), x.ends.index(b), y.ends.index(e), y.ends.index(b)
            if ((px - bx) % 2 and (py - by) % 2
                    and (px - x.over_in) % 2 == (py - y.over_in) % 2):
                return pair, [(x.ends[(px + 2) % 4], y.ends[(py + 2) % 4]),
                              (x.ends[(bx + 2) % 4], y.ends[(by + 2) % 4])]
    return None


def reduce_diagram(d: PlanarDiagram) -> PlanarDiagram:
    """Apply R1 (kink removal) and R2 (bigon removal) until neither fires.

    Reduces crossing count without changing the knot type; the Jones
    polynomial is unchanged because both moves are Reidemeister moves on
    the underlying diagram.  Each step makes `_first_move`'s move, R1
    before R2, so the reduced diagram is fixed by that order.
    """
    crossings, free_loops = list(d.crossings), d.free_loops
    while move := _first_move(crossings):
        drop, joins = move
        crossings = [x for i, x in enumerate(crossings) if i not in drop]
        for u, v in joins:
            if u == v:
                free_loops += 1
            else:
                crossings = [Crossing(tuple(u if e == v else e for e in x.ends), x.over_in)
                             for x in crossings]
    return _renumber(crossings, free_loops, d.n_components)


# ---------------------------------------------------------------------------
# Verification report


@dataclass(frozen=True)
class VerificationReport:
    match: bool
    mirrored: bool  # matched only after t <-> 1/t
    computed: LaurentPolynomial
    expected: LaurentPolynomial
    crossings_raw: int
    crossings_reduced: int

    def to_text(self) -> str:
        status = "match (mirror)" if self.match and self.mirrored else (
            "match" if self.match else "MISMATCH")
        return (f"{status}: computed {self.computed.pretty('s')} vs "
                f"expected {self.expected.pretty('s')} "
                f"[{self.crossings_raw} -> {self.crossings_reduced} crossings]")


def expected_jones(expected) -> LaurentPolynomial:
    if isinstance(expected, LaurentPolynomial):
        return expected
    if isinstance(expected, Mosaic):
        return jones(to_diagram(expected))
    raise KnotfieldError(f"cannot derive a Jones polynomial from {type(expected).__name__}")


def verify_knot_type(curve, expected) -> VerificationReport:
    """Compare an extracted curve's knot type with an expected knot.

    curve: the unrefined `extract` result (one component; its piecewise-linear
    zero set is embedded by construction, refined vertices can jitter where f
    is ill-conditioned), or a raw (k, 3) polyline.
    expected: Mosaic or Jones polynomial.
    """
    if hasattr(curve, "components"):
        if curve.n_components != 1:
            raise KnotfieldError(
                f"verification needs a single component, curve has {curve.n_components}")
        points = curve.vertices(0)
    else:
        points = curve
    raw = project_diagram(points)
    red = reduce_diagram(raw)
    computed = jones(red)
    want = expected_jones(expected)
    mirrored = computed != want and computed == want.mirror()
    return VerificationReport(computed == want or mirrored, mirrored, computed, want,
                              len(raw.crossings), len(red.crossings))
