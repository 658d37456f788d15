"""Planar diagrams (PD codes) of mosaics and projected curves, and exact
bracket/Jones.

PD convention.  Mosaic and projected diagrams are both built by
`from_traversal`, the one diagram builder, which gives a diagram with c
crossings the edge ids 1..2c, numbered along each component in turn (edge
j runs from its j-th crossing passage to the next), so each id appears
exactly twice and `n_edges` = 2c is derived.  A crossing lists its ends
counterclockwise from the incoming under edge; `over_in` (1 or 3) is the
position of the incoming over edge: 3 when ud x od < 0 for under and over
directions ud, od (the over strand runs left to right seen along the under
strand), else 1.  Closed components that meet no crossing are counted as
free loops.

The Kauffman bracket is exact: it contracts the diagram crossing by
crossing, keeping one polynomial per way the smoothed arcs can pair up the
edges left open, so its cost follows the width of that open boundary
rather than 2^c.  Above `CROSSING_CAP` crossings, a fixed module constant
read on every call, it raises CrossingCapError instead of contracting.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CrossingCapError, KnotfieldError
from .laurent import LaurentPolynomial
from .mosaic import CROSSING_OVER, CROSSING_TILES, Mosaic, trace_components

# Unit direction of travel towards each cell side (x = column, y = -row).
SIDE_VECTORS = {"E": (1, 0), "N": (0, 1), "W": (-1, 0), "S": (0, -1)}

CROSSING_CAP = 24


@dataclass(frozen=True)
class Crossing:
    ends: tuple  # 4 edge ids, ccw, ends[0] = incoming under edge
    over_in: int  # 1 or 3: ccw position of the incoming over edge

    @property
    def sign(self):
        # +1 when the over direction is 90 degrees cw from the under direction,
        # matching <positive kink> = -A^3 under the bracket smoothing rule.
        return 1 if self.over_in == 3 else -1


@dataclass(frozen=True)
class PlanarDiagram:
    crossings: tuple
    free_loops: int = 0
    n_components: int = 1

    @property
    def n_edges(self):
        return 2 * len(self.crossings)

    @property
    def writhe(self):
        return sum(x.sign for x in self.crossings)

    def check(self):
        seen = {}
        for x in self.crossings:
            if x.over_in not in (1, 3):
                raise KnotfieldError(f"crossing {x.ends} has over_in {x.over_in}, expected 1 or 3")
            for e in x.ends:
                seen[e] = seen.get(e, 0) + 1
        for e, k in seen.items():
            if not 1 <= e <= self.n_edges:
                raise KnotfieldError(f"edge id {e} outside 1..{self.n_edges}")
            if k != 2:
                raise KnotfieldError(f"edge {e} appears {k} times, expected 2")
        return self

    def mirror(self):
        """Switch every crossing (over <-> under)."""
        flipped = []
        for x in self.crossings:
            # The under strand becomes over: rotate the tuple so position 0
            # is the new incoming under edge (the old incoming over edge).
            k = x.over_in
            ends = tuple(x.ends[(k + i) % 4] for i in range(4))
            flipped.append(Crossing(ends, 4 - k))
        return PlanarDiagram(tuple(flipped), self.free_loops, self.n_components)

    def pd_code(self):
        return " ".join("X(%d,%d,%d,%d)" % x.ends for x in self.crossings) or "(no crossings)"


def from_traversal(components) -> PlanarDiagram:
    """Build a diagram from a list with, per closed component, its crossing
    passages (key, over?, (dx, dy) direction of travel) in traversal order.

    A component with no passages is a free loop.  Each key is passed once
    over and once under, in non-parallel directions.  Crossings come out
    sorted by key, numbered as the module docstring says.
    """
    passes = {}  # key -> {over?: (edge in, edge out, direction)}
    edge = 0
    for passages in components:
        k = len(passages)
        for j, (key, over, direction) in enumerate(passages):
            passes.setdefault(key, {})[over] = (edge + (j - 1) % k + 1, edge + j + 1, direction)
        edge += k

    crossings = []
    for key in sorted(passes):
        if len(passes[key]) != 2:
            raise KnotfieldError(f"crossing {key} not traversed twice")
        (u_in, u_out, (ux, uy)), (o_in, o_out, (ox, oy)) = passes[key][False], passes[key][True]
        if ux * oy - uy * ox < 0:
            crossings.append(Crossing((u_in, o_out, u_out, o_in), 3))
        else:
            crossings.append(Crossing((u_in, o_in, u_out, o_out), 1))
    free_loops = sum(1 for passages in components if not passages)
    return PlanarDiagram(tuple(crossings), free_loops, len(components)).check()


def to_diagram(m: Mosaic) -> PlanarDiagram:
    """Convert a valid mosaic with at least one component into a diagram."""
    strands = trace_components(m)
    if not strands:
        raise KnotfieldError("mosaic has zero components")
    cells = m.cells
    return from_traversal([
        [(cell, exit_ in CROSSING_OVER[cells[cell]], SIDE_VECTORS[exit_])
         for cell, _, exit_ in strand.passages if cells[cell] in CROSSING_TILES]
        for strand in strands])


# ---------------------------------------------------------------------------
# Kauffman bracket and Jones polynomial


def _contraction_order(crossings):
    """Crossings in contraction order: next comes the one with the most ends
    on the open boundary (edges with exactly one end added so far), ties
    broken by the lowest index.

    Each crossing's count of open ends is kept as the order grows: placing
    a crossing flips each of its edges between open and closed, and every
    crossing at that edge gains or loses one open end per end it has there.
    """
    at = {}  # edge -> the index of the crossing at each of its ends
    for i, x in enumerate(crossings):
        for e in x.ends:
            at.setdefault(e, []).append(i)
    score = [0] * len(crossings)  # open ends per crossing
    left = list(range(len(crossings)))
    open_edges = set()
    order = []
    while left:
        best = max(left, key=score.__getitem__)  # the first maximum: the lowest index
        left.remove(best)
        order.append(crossings[best])
        for e in crossings[best].ends:
            step = -1 if e in open_edges else 1
            open_edges ^= {e}  # open after its first end, closed after its second
            for i in at[e]:
                score[i] += step
    return order


def bracket(diagram: PlanarDiagram) -> LaurentPolynomial:
    """Exact Kauffman bracket in the variable A, <unknot> = 1.

    Adds the crossings one at a time (`_contraction_order`) and keeps the
    partial state sum over Temperley-Lieb boundary matchings: Bar-Natan's
    "Fast Khovanov homology computations" (JKTR 16, 2007), decategorified.
    A partial state is the matching of the open edges by the smoothed arcs,
    plus whether a loop has closed yet; it carries a polynomial.  Each
    crossing splits every state into its A smoothing (ends 0-1 and 2-3,
    factor A) and its B smoothing (ends 1-2 and 3-0, factor A^-1).  Each
    loop after the first multiplies by d = -A^2 - A^-2.  States with the
    same key merge, so after k crossings there are at most 2^k of them.

    With the edges renumbered 1..n, a state's key is a flat tuple: slot e
    holds the open edge at the other end of e's arc, or 0 when e is not
    open, and slot 0 holds 1 once a loop has closed.  A transition copies
    the key, glues the smoothing's two pairs of ends in place and looks the
    result up once.  With no loop factor, the common case, it adds the
    polynomial shifted by +-1; otherwise it multiplies by d or d^2 term by
    term.
    """
    c = len(diagram.crossings)
    if c > CROSSING_CAP:
        raise CrossingCapError(c, CROSSING_CAP)
    delta = LaurentPolynomial({2: -1, -2: -1})
    if c == 0:
        if diagram.free_loops < 1:
            raise KnotfieldError("empty diagram has no bracket")
        return delta ** (diagram.free_loops - 1)
    d_pows = ({0: 1}, delta.coeffs, (delta * delta).coeffs)  # a crossing closes <= 2 loops
    ids = {}
    for x in diagram.crossings:
        for e in x.ends:
            ids.setdefault(e, len(ids) + 1)
    states = {(0,) * (len(ids) + 1): {0: 1}}  # key -> {A exponent: coefficient}
    for x in _contraction_order(diagram.crossings):
        e0, e1, e2, e3 = map(ids.__getitem__, x.ends)
        # Each smoothing: the pairs of ends it joins, and its power of A.
        smoothings = ((((e0, e1), (e2, e3)), 1), (((e1, e2), (e3, e0)), -1))
        merged = {}
        for key, poly in states.items():
            for pairs, shift in smoothings:
                m = list(key)
                loops = 0
                for a, b in pairs:
                    if a == b or m[a] == b:  # the pair closes its arc into a loop
                        m[a] = m[b] = 0
                        loops += 1
                    else:  # join the far ends of the two arcs; a new edge is its own far end
                        ea, eb = m[a] or a, m[b] or b
                        m[a] = m[b] = 0
                        m[ea], m[eb] = eb, ea
                if loops and not m[0]:  # the first loop is free
                    m[0] = 1
                    loops -= 1
                new = tuple(m)
                out = merged.get(new)
                if out is None:
                    out = merged[new] = {}
                if loops == 0:
                    for e, c0 in poly.items():
                        e += shift
                        out[e] = out.get(e, 0) + c0
                else:
                    for e, c0 in poly.items():
                        for f, cf in d_pows[loops].items():
                            ef = e + f + shift
                            out[ef] = out.get(ef, 0) + c0 * cf
        states = merged
    closed = (1,) + (0,) * len(ids)
    if list(states) != [closed]:
        raise KnotfieldError("diagram does not close up: some edge is not met exactly twice")
    return LaurentPolynomial(states[closed]) * delta ** diagram.free_loops


def jones(diagram: PlanarDiagram) -> LaurentPolynomial:
    """Jones polynomial, exponents counted in units of t^(1/2).

    V = (-A^3)^(-w) <D> with the substitution A = t^(-1/4).
    """
    br = bracket(diagram)
    w = diagram.writhe
    sign = -1 if w % 2 else 1  # (-A^3)^(-w) = (-1)^w A^(-3w)
    poly_a = LaurentPolynomial.monomial(-3 * w, sign) * br
    out = {}
    for e, c0 in poly_a.coeffs.items():
        if e % 2:
            raise KnotfieldError("odd A-exponent in normalized bracket; diagram is inconsistent")
        out[-e // 2] = c0  # A^e = t^(-e/4) = (t^(1/2))^(-e/2)
    return LaurentPolynomial(out)


def jones_in_t(p: LaurentPolynomial) -> LaurentPolynomial:
    """Convert a Jones polynomial from t^(1/2) units to integral t powers."""
    if any(e % 2 for e in p.coeffs):
        raise KnotfieldError("polynomial has genuine half-integer t powers")
    return LaurentPolynomial({e // 2: c for e, c in p.coeffs.items()})


def evaluate_jones(p: LaurentPolynomial, t: float) -> float:
    """Evaluate a Jones polynomial (t^(1/2) exponent units) at a real t.

    Negative t requires integral t powers: true for a link with an odd
    number of components, knots included, and false for an even number.
    """
    if t == 0:
        raise KnotfieldError("cannot evaluate at t = 0")
    if t > 0:
        return float(p.evaluate(t ** 0.5))
    if any(e % 2 for e in p.coeffs):
        raise KnotfieldError("evaluating at t < 0 needs integral t powers, which the Jones "
                             "polynomial of a link with an even number of components "
                             "does not have")
    return float(jones_in_t(p).evaluate(t))
