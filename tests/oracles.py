"""Independent reference implementations used only by the tests.

The bracket oracle enumerates all 2^n smoothing states and counts loops by
explicitly walking half-edge pairings, sharing no code with the production
bracket (which adds crossings one at a time and merges partial states by
their matching of the open edges).  Polynomials are
plain exponent->coefficient dicts here.  The expand oracle applies move
instances one at a time to Mosaic objects, never touching the packed arrays
the production kernel reads; the orbit oracle is a plain state-by-state BFS
over it, and the witness oracle finds each step's move by trying every
instance on the parent.
"""

import itertools

from knotfield.errors import BudgetExceededError
from knotfield.mosaic import Mosaic
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


def oracle_orbit(m, templates, budget):
    """Parent pointers of a plain BFS over oracle_expand, in insertion order.

    Raises BudgetExceededError on the first member past the budget.
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
                    raise BudgetExceededError(budget, len(parents))
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
