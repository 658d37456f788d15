"""Independent reference implementations used only by the tests.

The bracket oracle enumerates all 2^n smoothing states and counts loops by
explicitly walking half-edge pairings, sharing no code with the production
bracket (which adds crossings one at a time and merges partial states by
their matching of the open edges).  Polynomials are
plain exponent->coefficient dicts here.  The contraction-order oracle
recounts every remaining crossing's open ends at each step, where
production keeps each count and updates it as crossings are placed.  The
expand oracle applies move instances one at a time to Mosaic objects,
never touching the packed arrays
the production kernel reads; the orbit oracle is a plain state-by-state BFS
over it, and the witness oracle finds each step's move by trying every
instance on the parent.  `expand_level` is no oracle but a test helper: it
concatenates the chunks of the production `kernels.expand_chunks` into
three lists for a whole level.  The extraction oracles march one cell and one
tetrahedron at a time, keying faces by frozensets of lattice-index tuples,
and Newton-refine one vertex at a time with scalar field evaluations.  The
embed oracle builds the sphere point as `x0 + 1j*x1, x2 + 1j*x3` from four
real arrays, where production writes each component into the real and
imaginary parts of its outputs; the candidate-cell oracle takes min and
max over the stacked corners, where production ORs packed sign bits; the
chaining oracle finds the adjacency with a row-wise `np.unique` of
segment pairs into a dict of neighbour lists, where production packs each
pair into one integer and reads degrees and neighbours off arrays.  The
field oracle takes integer powers with `**`, where production multiplies
them out.  The sampling oracles write the inverse stereographic map out inline (the box
initial state) or evaluate the whole chart cube in one call (the fiber),
where production goes through `embed` and the slab loop `lattice_slabs`.
The Hausdorff oracle builds the whole (m, k, 3) difference array and takes
the norm of each pair, where production sums squares over row blocks and
takes the root last.
The validation oracle checks each lattice edge
with a three-way None/True/False comparison, where production scans any
rows x cols block with one rule shared by validation and move templates.
The tracing oracle steps each strand cell by cell, finding the exit by
searching the tile's pairs and the next cell by an if/elif chain, where
production reads one exit table.  The diagram oracle places each mosaic
crossing's ends from a table of cell sides instead of from direction
vectors.  The random-mosaic oracle is a
backtracking search of its own, where production takes the first mosaic
of the shuffled enumeration DFS.  The evolution oracle takes one
propagator step at a time with a 3-D FFT pair, rebuilding its phases
every step, where production jumps from snapshot to snapshot with three
per-axis matrices built once (the free Hamiltonian as the omega = 0
oscillator); the axis-matrix oracle applies an interval's Strang steps to
the identity one at a time, where production takes the power by repeated
squaring.  The
projection-crossing oracle tests each segment against every later one in
a Python loop and checks triple points pair by pair, where production
sweeps sorted bounding boxes for candidate pairs and tests them all at
once.  The abelianization oracle row-reduces the abelianized relation
matrix exactly over the rationals, where production counts generator
classes with a union-find; the exponent-sum oracle writes out each
relation's boundary word.  `from_xcode` builds a diagram from classical
X(a,b,c,d) codes, for test links written that way; the library builds
every diagram with `from_traversal`.
"""

import itertools
from fractions import Fraction
import warnings

import numpy as np

from knotfield.errors import (BudgetExceededError, KnotfieldError, NonGenericProjectionError,
                              OpenChainError)
from knotfield import kernels
from knotfield.extraction import (
    _CORNER_OFFSETS,
    _KUHN_TETS,
    CONDITION_WARN,
    NEWTON_MAX_STEPS,
    NEWTON_TARGET,
    NodalCurve,
    SampleGrid,
    embed,
)
from knotfield.diagram import Crossing, PlanarDiagram
from knotfield.evolution import EvolutionConfig, FieldState
from knotfield.mosaic import (
    _ADMISSIBLE,
    CROSSING_OVER,
    OPPOSITE,
    TILE_PAIRS,
    TILE_SIDES,
    E,
    N,
    S,
    W,
    Mosaic,
    Strand,
)
from knotfield.moves import apply, instances_for


def _poly_mul(p, q):
    out = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            e = ea + eb
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _poly_add(p, q):
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


LOOP_FACTOR = {-2: -1, 2: -1}  # d = -A^2 - A^-2


def _loops_of_state(crossings, n_edges, state):
    """Count closed loops of a full smoothing by walking edge pairings.

    Each smoothing replaces a crossing by two joins of adjacent ends.
    Ends are (crossing index, position).  The A-smoothing joins the ends
    at positions (0,1) and (2,3); the B-smoothing joins (1,2) and (3,0).
    """
    joined = {}  # end -> end
    for ci, (x, choice) in enumerate(zip(crossings, state)):
        pairs = ((0, 1), (2, 3)) if choice == "A" else ((1, 2), (3, 0))
        for a, b in pairs:
            joined[(ci, a)] = (ci, b)
            joined[(ci, b)] = (ci, a)

    # Ends carrying the same edge id are the two endpoints of that edge.
    by_edge = {}
    for ci, x in enumerate(crossings):
        for pos, e in enumerate(x.ends):
            by_edge.setdefault(e, []).append((ci, pos))
    edge_mate = {}
    for e, ends in by_edge.items():
        if len(ends) == 2:
            a, b = ends
            edge_mate[a] = b
            edge_mate[b] = a
        else:  # an edge from a crossing end to itself (a kink loop edge)
            (a,) = ends
            edge_mate[a] = a

    loops = 0
    seen = set()
    for start in joined:
        if start in seen:
            continue
        loops += 1
        cur = start
        while True:
            seen.add(cur)
            partner = joined[cur]
            seen.add(partner)
            cur = edge_mate[partner]
            if cur == start:
                break
    return loops


def oracle_bracket(diagram):
    """Kauffman bracket by exhaustive smoothing, as an exponent dict in A."""
    crossings = diagram.crossings
    if not crossings:
        assert diagram.free_loops >= 1
        total = {0: 1}
        for _ in range(diagram.free_loops - 1):
            total = _poly_mul(total, LOOP_FACTOR)
        return total
    total = {}
    for state in itertools.product("AB", repeat=len(crossings)):
        a = state.count("A")
        b = state.count("B")
        loops = _loops_of_state(crossings, diagram.n_edges, state)
        loops += diagram.free_loops
        term = {a - b: 1}
        for _ in range(loops - 1):
            term = _poly_mul(term, LOOP_FACTOR)
        total = _poly_add(total, term)
    return total


def oracle_contraction_order(crossings):
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


def oracle_writhe(diagram):
    w = 0
    for x in diagram.crossings:
        w += 1 if x.over_in == 3 else -1
    return w


def oracle_jones(diagram):
    """Jones polynomial as an exponent dict in s = t^(1/2).

    V = (-A^3)^(-w) <D>, then A-exponent e becomes s-exponent -e/2.
    """
    br = oracle_bracket(diagram)
    w = oracle_writhe(diagram)
    sign = (-1) ** (abs(3 * w) % 2)
    shifted = {e - 3 * w: sign * c for e, c in br.items()}
    out = {}
    for e, c in shifted.items():
        assert e % 2 == 0, "bracket of a closed diagram has even exponents"
        out[-e // 2] = out.get(-e // 2, 0) + c
    return {e: c for e, c in out.items() if c}


def oracle_validate(m):
    """Bad edges of a mosaic, each lattice edge compared as None (outer
    boundary), True or False on either side."""
    n = m.n
    bad = []

    def has(r, c, side):
        return side in TILE_SIDES[m.tile(r, c)]

    for r in range(n + 1):
        for c in range(n):
            above = has(r - 1, c, S) if r > 0 else None
            below = has(r, c, N) if r < n else None
            if above is None and below:
                bad.append(("h", r, c, "connection point on outer boundary"))
            elif below is None and above:
                bad.append(("h", r, c, "connection point on outer boundary"))
            elif above is not None and below is not None and above != below:
                bad.append(("h", r, c, "mismatched interior edge"))
    for r in range(n):
        for c in range(n + 1):
            left = has(r, c - 1, E) if c > 0 else None
            right = has(r, c, W) if c < n else None
            if left is None and right:
                bad.append(("v", r, c, "connection point on outer boundary"))
            elif right is None and left:
                bad.append(("v", r, c, "connection point on outer boundary"))
            elif left is not None and right is not None and left != right:
                bad.append(("v", r, c, "mismatched interior edge"))
    return tuple(bad)


def oracle_trace_components(m):
    """Closed strands of a valid mosaic, walked one cell at a time from the
    smaller side of each untraversed pair, cells in row-major order."""
    assert not oracle_validate(m)

    def partner(tile, side):
        for pair in TILE_PAIRS[tile]:
            if side in pair:
                (other,) = pair - {side}
                return other
        return None

    n = m.n
    used = set()
    strands = []
    for start_cell in range(n * n):
        for pair in TILE_PAIRS[m.cells[start_cell]]:
            entry = min(pair)
            if (start_cell, entry) in used:
                continue
            passages = []
            cell, side = start_cell, entry
            while True:
                exit_side = partner(m.cells[cell], side)
                passages.append((cell, side, exit_side))
                used.add((cell, side))
                used.add((cell, exit_side))
                r, c = divmod(cell, n)
                if exit_side == N:
                    r -= 1
                elif exit_side == S:
                    r += 1
                elif exit_side == E:
                    c += 1
                else:
                    c -= 1
                cell, side = r * n + c, OPPOSITE[exit_side]
                if cell == start_cell and side == entry:
                    break
            strands.append(Strand(tuple(passages)))
    return strands


# ccw cyclic order of cell sides in the plane (x = column, y = -row).
CCW_SIDES = ("E", "N", "W", "S")


def oracle_to_diagram(m):
    """Diagram of a mosaic read off a per-side table at each crossing cell.

    Each crossing's four ends are placed by cell side in counterclockwise
    order and rotated to start at the incoming under end, with no direction
    vectors or turn rule.  Edge j of a component runs from its crossing
    passage j to passage j+1, ids 1..2c.
    """
    strands = oracle_trace_components(m)
    crossing_cells = [i for i, t in enumerate(m.cells) if t in CROSSING_OVER]
    edge_id = 0
    free_loops = 0

    # events[cell][side_entry] = (edge_in, edge_out, side_exit)
    events = {cell: {} for cell in crossing_cells}
    for strand in strands:
        pas = strand.passages
        hits = [k for k, (cell, _, _) in enumerate(pas) if cell in events]
        if not hits:
            free_loops += 1
            continue
        base, k = edge_id, len(hits)
        for j, hit in enumerate(hits):
            cell, entry, exit_ = pas[hit]
            events[cell][entry] = (base + (j - 1) % k + 1, base + j + 1, exit_)
        edge_id += k

    crossings = []
    for cell in crossing_cells:
        over_pair = CROSSING_OVER[m.cells[cell]]
        side_info = {}  # side -> (edge, "in"|"out", over?)
        for entry, (e_in, e_out, exit_) in events[cell].items():
            over = frozenset({entry, exit_}) == over_pair
            side_info[entry] = (e_in, "in", over)
            side_info[exit_] = (e_out, "out", over)
        assert len(side_info) == 4, f"crossing cell {cell} not traversed twice"
        order = [side_info[s] for s in CCW_SIDES]
        under_in_pos = next(i for i, (e, d, over) in enumerate(order)
                            if d == "in" and not over)
        ends = tuple(order[(under_in_pos + i) % 4][0] for i in range(4))
        over_in = next(i for i in (1, 3)
                       if order[(under_in_pos + i) % 4][1] == "in")
        crossings.append(Crossing(ends, over_in))
    return PlanarDiagram(tuple(crossings), free_loops, len(strands))


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


def oracle_dim(n):
    """11^(n^2) by repeated multiplication."""
    total = 1
    for _ in range(n * n):
        total *= 11
    return total


def oracle_expand(m, templates):
    """Every state one move away from m, as bytes, in instance order."""
    out = []
    for inst in instances_for(templates, m.n):
        moved = apply(inst, m)
        if moved.cells != m.cells:
            out.append(bytes(moved.cells))
    return out


def expand_level(states, tables):
    """`kernels.expand_chunks` over a whole level: three equal-length lists
    (source indices into `states`, instance indices, neighbor bytes),
    ordered by source state and then by instance."""
    sources, instances, neighbors = [], [], []
    start = 0
    for block, rows, inst, new in kernels.expand_chunks(states, tables):
        sources += (rows + start).tolist()
        instances += inst.tolist()
        neighbors += new
        start += len(block)
    return sources, instances, neighbors


def oracle_orbit(m, templates, budget):
    """Parent pointers of a plain BFS over oracle_expand, in insertion order.

    Raises BudgetExceededError on the first member past the budget; its
    `parents` attribute holds the members found by then, that one last.
    """
    start = bytes(m.cells)
    parents = {start: None}
    queue = [start]
    for state in queue:  # the queue grows while it is walked
        for nb in oracle_expand(Mosaic(m.n, tuple(state)), templates):
            if nb not in parents:
                parents[nb] = state
                queue.append(nb)
                if len(parents) > budget:
                    exc = BudgetExceededError(budget, len(parents))
                    exc.parents = parents
                    raise exc
    return parents


def oracle_witness(parents, m, templates):
    """Moves replaying the BFS root -> m along `parents` (bytes -> parent
    bytes or None); each step is the first instance mapping parent to child."""
    insts = instances_for(templates, m.n)
    state = bytes(m.cells)
    seq = []
    while (parent := parents[state]) is not None:
        src = Mosaic(m.n, tuple(parent))
        seq.append(next(i for i in insts if bytes(apply(i, src).cells) == state))
        state = parent
    return seq[::-1]


def oracle_field(name, params=()):
    """The library field `name` written with `**` for its integer powers,
    as the library wrote it before it multiplied them out."""
    if name == "milnor":
        p, q = params
        return lambda z, w: z ** p + w ** q

    def rudolph_F(z, w):
        zb = np.conjugate(z)
        return w ** 3 - 3 * zb * (1 + z + zb) * w - 2 * (z + zb)

    if name == "rudolph_F":
        return rudolph_F
    if name == "rudolph_G":
        return lambda z, w: rudolph_F(z ** 2, w)
    raise ValueError(f"no oracle for field {name!r}")


def oracle_face_zero(ids, coords, vals):
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


def oracle_candidate_cells(values, min_amp, slab=32):
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


def oracle_embed(grid: SampleGrid, x, y, z):
    """Map chart coordinates x, y, z to the sphere point (z, w) in C^2.

    The three coordinates are broadcast against each other, so lattice
    axes shaped (m, 1, 1), (1, n, 1) and (1, 1, n) give the values on the
    whole (m, n, n) block; (m, 3) points pass as `*p.T`.
    """
    x, y, zc = (np.asarray(c, dtype=float) for c in (x, y, z))
    s = 1.0 + x * x + y * y + zc * zc
    r = grid.radius
    x0 = (r if grid.chart == "north" else -r) * (s - 2.0) / s  # +-(|u|^2 - 1)/(|u|^2 + 1)
    x1, x2, x3 = 2.0 * r * x / s, 2.0 * r * y / s, 2.0 * r * zc / s
    return x0 + 1j * x1, x2 + 1j * x3


def oracle_chain(segments, points, allow_open=False):
    """Join segments sharing a face into polylines of face indices.

    Returns (loops, paths).  A path starts at its lower-indexed end and a
    loop at its lowest face, walking first to that face's lower neighbour.
    Chains that do not close are an error unless allow_open is set, in
    which case they come back as open paths (used when tracking filaments
    truncated at an amplitude floor).
    """
    adjacency = {}  # face -> ascending neighbours, keys ascending
    for a, b in np.unique(np.vstack([segments, segments[:, ::-1]]), axis=0).tolist():
        adjacency.setdefault(a, []).append(b)
    dangling = [k for k, nbrs in adjacency.items() if len(nbrs) != 2]
    if dangling and not allow_open:
        pts = [tuple(np.round(points[k], 6).tolist()) for k in dangling]
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

    ends = [k for k in adjacency if len(adjacency[k]) == 1]
    paths = [walk(k) for k in ends if k not in visited]
    loops = [walk(k) for k in adjacency if k not in visited]
    return loops, paths


def oracle_march(axes, values, min_amp=0.0):
    """Segments of the piecewise-linear zero set, as face-key pairs.

    Returns (segments, face_points) where each segment is a frozenset pair
    of face keys and face_points maps a face key to its zero coordinates.
    """
    ax0, ax1, ax2 = axes
    face_points = {}
    segments = []
    for i, j, k in oracle_candidate_cells(values, min_amp):
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
                    pt = oracle_face_zero([ids[v] for v in tri],
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


def oracle_refine_vertex(g, p, tangent, step_clamp, h):
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


def oracle_refine(curve: NodalCurve, f, grid: SampleGrid) -> NodalCurve:
    """Newton-sharpen every vertex of `extract(f, grid)` onto the zero set of f.

    Steps are clamped to half the spacing of grid's undilated lattice.
    Components, vertex counts and closed flags are kept; the residual is the
    largest |f| left at any vertex.  A vertex where the Jacobian is
    near-degenerate (transversality may fail) stops with a UserWarning.
    """
    def evaluator(p):
        zz, ww = embed(grid, *p.T)
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
            out[idx], res[idx] = oracle_refine_vertex(evaluator, pts[idx], tangent,
                                                      step_clamp=spacing / 2.0,
                                                      h=spacing * 1e-3)
        if closed:
            out, res = np.vstack([out, out[:1]]), np.append(res, res[0])
        components.append(out)
        vertex_abs.append(res)
    residual = max((float(r.max()) for r in vertex_abs if len(r)), default=0.0)
    return NodalCurve(tuple(components), curve.chart, residual, tuple(vertex_abs),
                      curve.closed_flags)


def oracle_sample_fiber(f, theta, grid: SampleGrid, band=0.05, nodal_tol=1e-3):
    """Chart points (plus |f|) whose phase is within band of theta, |f| > nodal_tol.

    Evaluates f once on the full (n, n, n, 3) cube of chart points.
    """
    ax = grid.axes()
    X, Y, Z = np.meshgrid(*ax, indexing="ij")
    u = np.stack([X, Y, Z], axis=-1)
    z, w = embed(grid, X, Y, Z)
    values = np.asarray(f(z, w), dtype=complex)
    mag = np.abs(values)
    diff = np.angle(np.exp(1j * (np.angle(values) - theta)))
    mask = (np.abs(diff) <= band) & (mag > nodal_tol)
    return np.column_stack([u[mask], mag[mask]])


def closure_gaps(curve: NodalCurve):
    """First-to-last vertex gap of every component (zero when closed)."""
    return [float(np.linalg.norm(pts[0] - pts[-1])) for pts in curve.components]


def chart_transfer(u):
    """Coordinates of the same sphere point in the opposite chart: u / |u|^2."""
    u = np.asarray(u, dtype=float)
    s = np.sum(u * u, axis=-1, keepdims=True)
    return u / s


def plane_wave(cfg: EvolutionConfig, mode=(1, 0, 0)) -> FieldState:
    """exp(i k . x) with k a lattice wavevector (integer mode numbers)."""
    ax = cfg.axes()
    X, Y, Z = np.meshgrid(*ax, indexing="ij")
    kf = 2.0 * np.pi / cfg.box
    mx, my, mz = mode
    return FieldState(np.exp(1j * kf * (mx * X + my * Y + mz * Z)), 0.0)


def gaussian_packet(cfg: EvolutionConfig, center=(0.0, 0.0, 0.0), width=1.0,
                    momentum=(0.0, 0.0, 0.0)) -> FieldState:
    """exp(-|x - c|^2 / (2 width^2)) exp(i p . x), unnormalized: a packet
    moving at group velocity p; at c = p = 0, `gaussian_state`."""
    ax = cfg.axes()
    X, Y, Z = np.meshgrid(*ax, indexing="ij")
    cx, cy, cz = center
    px, py, pz = momentum
    r2 = (X - cx) ** 2 + (Y - cy) ** 2 + (Z - cz) ** 2
    return FieldState(np.exp(-r2 / (2.0 * width ** 2))
                      * np.exp(1j * (px * X + py * Y + pz * Z)), 0.0)


def density_center(s: FieldState, cfg: EvolutionConfig):
    """|psi|^2-weighted mean position, for trajectory checks."""
    ax = cfg.axes()
    rho = np.abs(s.values) ** 2
    tot = rho.sum()
    if tot == 0:
        raise KnotfieldError("cannot locate the center of the zero field")
    return np.array([float((rho.sum(axis=tuple(j for j in range(3) if j != i)) * ax[i]).sum())
                     for i in range(3)]) / tot


def oracle_hausdorff(a, b) -> float:
    """Symmetric Hausdorff distance from the whole (m, k, 3) difference
    array, with the norm taken per pair."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if len(a) == 0 or len(b) == 0:
        return float("inf") if len(a) != len(b) else 0.0
    d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=-1)
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def oracle_initial_knot_state(f, cfg, scale=None, taper=(0.7, 0.95)):
    """Box samples of f through an inline north-chart inverse stereographic
    map of x / scale, times the Gaussian radial taper; returns the array."""
    L = cfg.box
    if scale is None:
        scale = L / 16.0
    lo, hi = (t * L / 2.0 for t in taper)
    X, Y, Z = np.meshgrid(*cfg.axes(), indexing="ij")
    r2 = (X * X + Y * Y + Z * Z) / scale ** 2
    s = 1.0 + r2
    z = (s - 2.0) / s + 1j * (2.0 * X / scale / s)
    w = 2.0 * Y / scale / s + 1j * (2.0 * Z / scale / s)
    vals = np.asarray(f(z, w), dtype=complex)
    rho = np.sqrt(X * X + Y * Y + Z * Z)
    t = np.maximum(rho - lo, 0.0) / ((hi - lo) / 6.0)
    return vals * np.exp(-t * t)


def oracle_random_mosaic(n, rng):
    """Randomized backtracking: each cell shuffles its admissible tiles with
    rng.shuffle and takes the first that completes the mosaic."""
    total = n * n
    cells = [0] * total

    def rec(i):
        if i == total:
            return True
        r, c = divmod(i, n)
        wr = c > 0 and E in TILE_SIDES[cells[i - 1]]
        nr = r > 0 and S in TILE_SIDES[cells[i - n]]
        options = list(_ADMISSIBLE[(wr, nr, c == n - 1, r == n - 1)])
        rng.shuffle(options)
        for t in options:
            cells[i] = t
            if rec(i + 1):
                return True
        return False

    if not rec(0):
        raise KnotfieldError(f"no valid mosaic of size {n}")
    return Mosaic(n, tuple(cells))


def oracle_step(s, cfg, dt):
    """One free spectral step, or one unfused Strang step (half kick,
    kinetic step, half kick), with the phases built inline."""
    k = cfg.wavenumbers()
    k2 = k[:, None, None] ** 2 + k[None, :, None] ** 2 + k[None, None, :] ** 2
    kinetic = np.exp(-0.5j * dt * k2)
    v = s.values
    if cfg.hamiltonian == "free":
        out = np.fft.ifftn(kinetic * np.fft.fftn(v))
    else:
        x, y, z = cfg.axes()
        wx, wy, wz = cfg.omega
        pot = 0.5 * ((wx * x[:, None, None]) ** 2 + (wy * y[None, :, None]) ** 2
                     + (wz * z[None, None, :]) ** 2)
        half = np.exp(-0.5j * dt * pot)
        out = half * np.fft.ifftn(kinetic * np.fft.fftn(half * v))
    return FieldState(out, s.time + dt, s.norm0)


def oracle_run(state, cfg, snapshot_every=0):
    """cfg.steps single steps; keeps the initial state, every
    snapshot_every-th state before the last, and the last."""
    snaps = [state]
    for i in range(1, cfg.steps + 1):
        state = oracle_step(state, cfg, cfg.dt)
        if snapshot_every and i % snapshot_every == 0 and i != cfg.steps:
            snaps.append(state)
    if cfg.steps:
        snaps.append(state)
    return snaps


def oracle_crossing_events(pts2, depth, scale):
    """All transverse intersections among segments of a closed polyline.

    pts2: (k, 2) projected vertices (not closed); segment i joins vertex i
    to vertex (i+1) mod k.  Returns a list of
    (seg_i, param_i, seg_j, param_j, over_is_i) or raises on a
    non-generic configuration.
    """
    k = len(pts2)
    a = pts2
    b = pts2[(np.arange(k) + 1) % k]
    d = b - a
    eps_par = 1e-9 * scale * scale
    eps_t = 1e-6
    events = []
    points = []
    for i in range(k):
        di = d[i]
        # vectorized over all j > i + 1, skipping the shared-vertex neighbors
        js = np.arange(i + 2, k if i > 0 else k - 1)
        if len(js) == 0:
            continue
        dj = d[js]
        rel = a[js] - a[i]
        denom = di[0] * dj[:, 1] - di[1] * dj[:, 0]
        ok = np.abs(denom) > eps_par
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            t = (rel[:, 0] * dj[:, 1] - rel[:, 1] * dj[:, 0]) / denom
            s = (rel[:, 0] * di[1] - rel[:, 1] * di[0]) / denom
        hit = ok & (t > -eps_t) & (t < 1 + eps_t) & (s > -eps_t) & (s < 1 + eps_t)
        for idx in np.nonzero(hit)[0]:
            j = int(js[idx])
            ti, tj = float(t[idx]), float(s[idx])
            if min(ti, 1 - ti, tj, 1 - tj) < eps_t:
                raise NonGenericProjectionError(
                    f"intersection grazes a vertex (segments {i}, {j})")
            zi = depth[i] + ti * (depth[(i + 1) % k] - depth[i])
            zj = depth[j] + tj * (depth[(j + 1) % k] - depth[j])
            if abs(zi - zj) < 1e-9 * scale:
                raise NonGenericProjectionError(
                    f"depths coincide at crossing of segments {i}, {j}")
            p = a[i] + ti * di
            points.append(p)
            events.append((i, ti, j, tj, zi > zj))
    pts = np.array(points) if points else np.zeros((0, 2))
    for m in range(len(pts)):
        dd = np.linalg.norm(pts[m + 1:] - pts[m], axis=1) if m + 1 < len(pts) else []
        if len(dd) and dd.min() < 1e-6 * scale:
            raise NonGenericProjectionError("two crossings nearly coincide (triple point)")
    return events


def relation_exponent_sums(p):
    """Per-relation generator exponent sums of the boundary word c^-1 b^-1 a b.

    Sending every generator to a single symbol t must trivialize each
    relation (total exponent 0), certifying the degree-one circle map.
    """
    out = []
    for rel_out, over, inp in p.relations:
        sums = {}
        for g, e in ((rel_out, -1), (over, -1), (inp, 1), (over, 1)):
            sums[g] = sums.get(g, 0) + e
        out.append({g: e for g, e in sums.items() if e})
    return out


def oracle_abelianization_rank(p, extra_rows=()) -> int:
    """Rank of H1 of the presented group: generators minus relation-matrix rank.

    Each conjugation relation abelianizes to a_in - a_out.  extra_rows, maps
    from generator to integer coefficient, let callers inject additional
    abelian relations (e.g. {"a1": 1} kills a1).
    """
    idx = {g: i for i, g in enumerate(p.generators)}
    rows = []
    for out, _, inp in p.relations:
        row = [0] * len(p.generators)
        row[idx[inp]] += 1
        row[idx[out]] -= 1
        rows.append(row)
    for extra in extra_rows:
        row = [0] * len(p.generators)
        for g, e in extra.items():
            row[idx[g]] += e
        rows.append(row)
    if not rows:
        return len(p.generators)
    return len(p.generators) - _rank(rows)


def _rank(rows):
    """Exact rank of an integer matrix by Gaussian elimination over Q."""
    m = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(len(m[0])):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(rank + 1, len(m)):
            if m[r][col]:
                f = m[r][col] / m[rank][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def oracle_axis_matrix(cfg, omega, n, dt):
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


def oracle_axis_products(values, phases):
    """The propagator phases (m0, m1, m2) applied to an N^3 cube as three
    whole-cube matrix products, one per axis: m0 on the (N, N^2) reshape,
    m1 on every slice of axis 0, and the (N^2, N) reshape times m2.T."""
    N = len(values)
    m0, m1, m2 = phases
    out = (m0 @ values.reshape(N, N * N)).reshape(N, N, N)
    out = m1 @ out
    return (out.reshape(N * N, N) @ m2.T).reshape(N, N, N)
