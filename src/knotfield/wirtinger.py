"""Wirtinger presentations of knot groups from planar diagrams.

One generator per arc (maximal over-passage), one conjugation relation per
crossing: a_out = a_over^-1 a_in a_over, with the input arc chosen so that,
looking along it into the crossing, the over strand runs left to right.

Each relation abelianizes to a_in = a_out, so H1 of the complement is free
abelian of rank equal to the number of generator classes under those
identifications: `abelianization_rank` counts them with the same union-find
that groups edges into arcs.  The exact rational elimination of the
relation matrix is kept in the tests as the oracle it is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _classes(items, pairs):
    """Union-find: unite each pair of items; return {item: class root}."""
    parent = {x: x for x in items}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return {x: find(x) for x in parent}


def _arc_classes(diagram: PlanarDiagram):
    """Union edges across over-passages into arcs; return {edge id: arc root}."""
    return _classes(range(1, diagram.n_edges + 1),
                    ((x.ends[x.over_in], x.ends[(x.over_in + 2) % 4])
                     for x in diagram.crossings))


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
        if over_out_pos == 1:
            inp, out = arc[x.ends[0]], arc[x.ends[2]]
        else:
            inp, out = arc[x.ends[2]], arc[x.ends[0]]
        relations.append((out, over, inp))

    return WirtingerPresentation(tuple(label.values()), tuple(relations))


def abelianization_rank(p: WirtingerPresentation) -> int:
    """Rank of H1 of the presented group: the number of generator classes.

    Each conjugation relation abelianizes to a_in = a_out, so H1 is free
    abelian on the classes of generators under those identifications.
    """
    roots = _classes(p.generators, ((out, inp) for out, _, inp in p.relations))
    return len(set(roots.values()))
