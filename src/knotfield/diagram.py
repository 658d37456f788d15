"""Planar diagrams (PD codes) of mosaics and projected curves, and exact
bracket/Jones.

PD convention.  Mosaic and projected diagrams are both built by
`from_traversal`, which gives a diagram with c crossings the edge ids
1..2c, numbered along each component in turn (edge j runs from its j-th
crossing passage to the next), so each id appears exactly twice and
`n_edges` = 2c is derived.  A crossing lists its ends counterclockwise
from the incoming under edge; `over_in` (1 or 3) is the position of the
incoming over edge: 3 when ud x od < 0 for under and over directions ud,
od (the over strand runs left to right seen along the under strand), else
1.  Closed components that meet no crossing are counted as free loops.

The Kauffman bracket is exact: it contracts the diagram crossing by
crossing, keeping one polynomial per way the smoothed arcs can pair up the
edges left open, so its cost follows the width of that open boundary
rather than 2^c.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CrossingCapError, KnotfieldError
from .laurent import LaurentPolynomial
from .mosaic import CROSSING_TILES, Mosaic, trace_components

# Unit direction of travel towards each cell side (x = column, y = -row).
SIDE_VECTORS = {"E": (1, 0), "N": (0, 1), "W": (-1, 0), "S": (0, -1)}

DEFAULT_CROSSING_CAP = 24


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


def from_xcode(quads):
    """Build a diagram from classical X(a,b,c,d) codes.

    Edges are assumed numbered 1..2c sequentially along the orientation;
    a is the incoming under edge and b, d the over pair.
    """
    quads = [tuple(int(v) for v in q) for q in quads]
    n_edges = 2 * len(quads)

    def succ(e):
        return e % n_edges + 1

    crossings = []
    for a, b, c, d in quads:
        if succ(b) == d:
            over_in = 1
        elif succ(d) == b:
            over_in = 3
        else:
            raise KnotfieldError(f"cannot orient over strand of X({a},{b},{c},{d})")
        crossings.append(Crossing((a, b, c, d), over_in))
    return PlanarDiagram(tuple(crossings), 0, 1).check()


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
        [(cell, (exit_ in "EW") == (cells[cell] == 9), SIDE_VECTORS[exit_])
         for cell, _, exit_ in strand.passages if cells[cell] in CROSSING_TILES]
        for strand in strands])


# ---------------------------------------------------------------------------
# Kauffman bracket and Jones polynomial


def _contraction_order(crossings):
    """Crossings in contraction order: next comes the one with the most ends
    on the open boundary (edges with exactly one end added so far), ties
    broken by index."""
    left = list(range(len(crossings)))
    open_edges = set()
    order = []
    while left:
        best = max(left, key=lambda i: (sum(e in open_edges for e in crossings[i].ends), -i))
        left.remove(best)
        order.append(crossings[best])
        for e in crossings[best].ends:
            open_edges ^= {e}  # open after its first end, closed after its second
    return order


def _glue(match, a, b):
    """Join the arcs ending at edges a and b; return 1 if that closes a loop.

    `match` maps each open edge to the open edge at the other end of its
    arc.  An edge not in `match` is new, and its arc starts here.
    """
    if a == b or match.get(a) == b:
        match.pop(a, None)
        match.pop(b, None)
        return 1
    ea = match.pop(a, a)
    eb = match.pop(b, b)
    match[ea] = eb
    match[eb] = ea
    return 0


# Each smoothing: the pairs of crossing ends it joins, and its power of A.
_SMOOTHINGS = ((((0, 1), (2, 3)), 1), (((1, 2), (3, 0)), -1))


def bracket(diagram: PlanarDiagram, cap: int = DEFAULT_CROSSING_CAP) -> LaurentPolynomial:
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
    """
    c = len(diagram.crossings)
    if c > cap:
        raise CrossingCapError(c, cap)
    delta = LaurentPolynomial({2: -1, -2: -1})
    if c == 0:
        if diagram.free_loops < 1:
            raise KnotfieldError("empty diagram has no bracket")
        return delta ** (diagram.free_loops - 1)
    d_pows = ({0: 1}, delta.coeffs, (delta * delta).coeffs)  # a crossing closes <= 2 loops
    states = {((), False): {0: 1}}  # (matching, looped) -> {A exponent: coefficient}
    for x in _contraction_order(diagram.crossings):
        ends = x.ends
        merged = {}
        for (key, looped), poly in states.items():
            for pairs, shift in _SMOOTHINGS:
                match = dict(key)
                loops = sum(_glue(match, ends[p], ends[q]) for p, q in pairs)
                factor = d_pows[loops - 1 if loops and not looped else loops]
                out = merged.setdefault((tuple(sorted(match.items())), looped or loops > 0), {})
                for e1, c1 in poly.items():
                    for e2, c2 in factor.items():
                        e = e1 + e2 + shift
                        out[e] = out.get(e, 0) + c1 * c2
        states = merged
    if list(states) != [((), True)]:
        raise KnotfieldError("diagram does not close up: some edge is not met exactly twice")
    return LaurentPolynomial(states[(), True]) * delta ** diagram.free_loops


def jones(diagram: PlanarDiagram, cap: int = DEFAULT_CROSSING_CAP) -> LaurentPolynomial:
    """Jones polynomial, exponents counted in units of t^(1/2).

    V = (-A^3)^(-w) <D> with the substitution A = t^(-1/4).
    """
    br = bracket(diagram, cap=cap)
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

    Negative t requires integral t powers (true for knots).
    """
    if t == 0:
        raise KnotfieldError("cannot evaluate at t = 0")
    if t > 0:
        return float(p.evaluate(t ** 0.5))
    return float(jones_in_t(p).evaluate(t))
