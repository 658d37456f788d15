"""Knot-type verification of extracted nodal curves.

A closed polyline is projected along a generic direction, crossings are
read off with over/under from projection depth, the resulting planar
diagram is simplified by R1/R2 reductions, and its Jones polynomial is
compared with the expected knot's (up to mirror, since neither the charts
nor the projection fix a chirality convention).

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

    The starting direction is fixed; on a non-generic configuration the
    direction is nudged through a fixed pseudo-random sequence, so results
    are deterministic across runs.
    """
    pts = np.asarray(points, dtype=float)
    if len(pts) > 1 and np.allclose(pts[0], pts[-1]):
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


def reduce_diagram(d: PlanarDiagram) -> PlanarDiagram:
    """Apply R1 (kink removal) and R2 (bigon removal) until neither fires.

    Reduces crossing count without changing the knot type; the Jones
    polynomial is unchanged because both moves are Reidemeister moves on
    the underlying diagram.
    """
    crossings = list(d.crossings)
    free_loops = d.free_loops

    def substitute(old, new):
        nonlocal crossings
        crossings = [Crossing(tuple(new if e == old else e for e in x.ends), x.over_in)
                     for x in crossings]

    changed = True
    while changed:
        changed = False
        # R1: an edge occupying two ccw-adjacent ends of one crossing
        for idx, x in enumerate(crossings):
            kink = None
            for p in range(4):
                if x.ends[p] == x.ends[(p + 1) % 4]:
                    kink = p
                    break
            if kink is None:
                continue
            rest = [x.ends[(kink + 2) % 4], x.ends[(kink + 3) % 4]]
            del crossings[idx]
            if rest[0] == rest[1]:
                free_loops += 1
            else:
                substitute(rest[1], rest[0])
            changed = True
            break
        if changed:
            continue
        # R2: a bigon whose one strand is over at both ends
        pairs = {}
        for idx, x in enumerate(crossings):
            for e in set(x.ends):
                pairs.setdefault(e, []).append(idx)
        for e, where in pairs.items():
            if changed:
                break
            if len(where) != 2:
                continue
            xi, yi = where
            x, y = crossings[xi], crossings[yi]
            shared = set(x.ends) & set(y.ends)
            for b in shared:
                if b == e:
                    continue
                px, pb_x = x.ends.index(e), x.ends.index(b)
                py, pb_y = y.ends.index(e), y.ends.index(b)
                # In a planar diagram e and b are at an odd distance at both
                # crossings or at 2 at both: opposite at one, the cycle they
                # form splits that crossing's other two ends, leaving an odd
                # number of ends on one side.  So one of the two (1, 3) below
                # could read (2, 3) to the same effect: a bigon skipped from e
                # at distance 1 is found from b at distance 3.
                if (px - pb_x) % 4 not in (1, 3) or (py - pb_y) % 4 not in (1, 3):
                    continue  # not a bigon face

                # The over positions over_in and over_in + 2 share a parity,
                # so of the neighbours px and pb_x exactly one is over.
                def is_over(c, pos):
                    return pos in (c.over_in, (c.over_in + 2) % 4)

                if is_over(x, px) != is_over(y, py):
                    continue  # R3-style clasp, not removable
                ax, ay = x.ends[(px + 2) % 4], y.ends[(py + 2) % 4]
                bx, by = x.ends[(pb_x + 2) % 4], y.ends[(pb_y + 2) % 4]
                for i in sorted((xi, yi), reverse=True):
                    del crossings[i]
                for u, v in ((ax, ay), (bx, by)):
                    if u == v:
                        free_loops += 1
                    else:
                        substitute(v, u)
                changed = True
                break
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
        points = curve.components[0]
    else:
        points = curve
    raw = project_diagram(points)
    red = reduce_diagram(raw)
    computed = jones(red)
    want = expected_jones(expected)
    if computed == want:
        return VerificationReport(True, False, computed, want,
                                  len(raw.crossings), len(red.crossings))
    if computed == want.mirror():
        return VerificationReport(True, True, computed, want,
                                  len(raw.crossings), len(red.crossings))
    return VerificationReport(False, False, computed, want,
                              len(raw.crossings), len(red.crossings))
