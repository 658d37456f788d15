"""Wirtinger presentations of knot groups from planar diagrams.

One generator per arc (maximal over-passage), one conjugation relation per
crossing: a_out = a_over^-1 a_in a_over, with the input arc chosen so that,
looking along it into the crossing, the over strand runs left to right.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import KnotfieldError
from .diagram import PlanarDiagram


@dataclass(frozen=True)
class WirtingerPresentation:
    generators: tuple  # arc labels "a1".."an"
    relations: tuple   # (output, over, input) triples of generator labels

    def __post_init__(self):
        gens = set(self.generators)
        for out, over, inp in self.relations:
            if not {out, over, inp} <= gens:
                raise KnotfieldError(f"relation ({out}, {over}, {inp}) uses unknown generators")

    def to_text(self) -> str:
        lines = ["gens: " + " ".join(self.generators)]
        for i, (out, over, inp) in enumerate(self.relations, 1):
            lines.append(f"rel {i}: {out} = {over}^-1 {inp} {over}")
        return "\n".join(lines) + "\n"


def _arc_classes(diagram: PlanarDiagram):
    """Union edges across over-passages into arcs; return {edge id: arc root}."""
    parent = {e: e for e in range(1, diagram.n_edges + 1)}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for x in diagram.crossings:
        over_out = (x.over_in + 2) % 4
        ra, rb = find(x.ends[x.over_in]), find(x.ends[over_out])
        if ra != rb:
            parent[ra] = rb
    return {e: find(e) for e in parent}


def wirtinger(diagram: PlanarDiagram) -> WirtingerPresentation:
    """Presentation of the fundamental group of the knot complement."""
    if diagram.n_components != 1:
        raise KnotfieldError(
            f"Wirtinger presentation requires a knot diagram, got {diagram.n_components} components")
    diagram.check()
    if not diagram.crossings:
        return WirtingerPresentation(("a1",), ())

    roots = _arc_classes(diagram)
    label = {}
    for root in sorted(set(roots.values())):
        label[root] = f"a{len(label) + 1}"
    arc = {e: label[r] for e, r in roots.items()}

    relations = []
    for x in diagram.crossings:
        over = arc[x.ends[x.over_in]]
        over_out_pos = (x.over_in + 2) % 4
        # The input under end is the one whose ccw-next position carries the
        # outgoing over edge: from there the over strand crosses left to right.
        if (0 + 1) % 4 == over_out_pos:
            inp, out = arc[x.ends[0]], arc[x.ends[2]]
        else:
            inp, out = arc[x.ends[2]], arc[x.ends[0]]
        relations.append((out, over, inp))

    return WirtingerPresentation(tuple(label.values()), tuple(relations))


def relation_exponent_sums(p: WirtingerPresentation):
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


def abelianization_rank(p: WirtingerPresentation, extra_rows=()) -> int:
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
