"""Seeded inputs, command lists and output checks of the three workloads.

Each builder writes its input files into a work directory and returns a
`Workload`: the commands to time (argv lists for `knotfield.cli.main`),
the warm-up commands a fresh process runs before timing, and one check per
command.  Reference values the checks need are computed here, off the
clock, with the library itself.

The seed changes which mosaics, charts and command orders a run sees.
The cost of a batch is kept nearly seed-independent on purpose, so that
runs with different seeds can be compared: orbit inputs are drawn into
fixed orbit classes, bracket inputs into fixed crossing counts, and every
field runs at every resolution.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass, field

import numpy as np

from knotfield import kernels
from knotfield.diagram import evaluate_jones, jones, to_diagram
from knotfield.errors import BudgetExceededError, NonGenericProjectionError
from knotfield.evolution import EvolutionConfig, initial_knot_state, track_nodal
from knotfield.extraction import RESIDUAL_TOL
from knotfield.fields import parse_field_spec
from knotfield.laurent import LaurentPolynomial
from knotfield.mosaic import (Mosaic, count_crossings, encode, load,
                              random_mosaic, trace_components)
from knotfield.moves import apply as apply_move
from knotfield.moves import default_table
from knotfield.orbits import compile_instances, orbit
from knotfield.project import verify_knot_type

COMMON = ["--format", "json", "--threads", "1"]

# Jones polynomials pinned by the test suite, in s = t^(1/2) units.
TREFOIL_JONES = LaurentPolynomial({-8: -1, -6: 1, -2: 1})
FIG8_JONES = LaurentPolynomial({-4: 1, -2: -1, 0: 1, 2: -1, 4: 1})
PINNED = {"trefoil4": TREFOIL_JONES, "fig8_5": FIG8_JONES,
          "granny8": TREFOIL_JONES * TREFOIL_JONES}

NORM_DRIFT_TOL = 1e-10


class CheckFailed(Exception):
    """An output did not match its expected value."""


@dataclass
class Command:
    kind: str
    argv: list
    check: object  # callable(stdout_text) -> None, raises CheckFailed; or None
    expect_code: int = 0
    expect_stderr: str = ""  # required in stderr when expect_code is not 0


@dataclass
class Workload:
    name: str
    commands: list
    warmup: list  # argv lists, one per command kind, on the smallest input
    inputs: list = field(default_factory=list)  # paths whose bytes define the inputs
    notes: dict = field(default_factory=dict)  # reported as they come out

    def digest(self):
        h = hashlib.sha256()
        for cmd in self.commands:
            h.update("\0".join(cmd.argv).encode())
        for path in self.inputs:
            with open(path, "rb") as fh:
                h.update(fh.read())
        return h.hexdigest()[:16]


def _require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def _write(workdir, name, m):
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        fh.write(encode(m))
    return path


def _fixture(root, name):
    return os.path.join(root, "src", "knotfield", "data", name + ".mosaic")


def _load(path):
    with open(path) as fh:
        return load(fh.read())


def _signature(m):
    return len(trace_components(m)), count_crossings(m)


def _draw(rng, n, accept, tries=20000):
    for _ in range(tries):
        m = random_mosaic(n, rng)
        if accept(m):
            return m
    raise RuntimeError(f"no {n}x{n} mosaic accepted in {tries} draws")


def _poly(payload):
    return LaurentPolynomial({int(e): c for e, c in payload["terms"].items()})


# ---------------------------------------------------------------------------
# orbits


CIRCLE5 = Mosaic(5, (0,) * 6 + (2, 1, 0, 0, 0, 3, 4) + (0,) * 12)  # a 2x2 circle off the rim


def _scramble(m, rng, steps):
    """Seeded random walk of move instances, staying inside the orbit of m."""
    _, pos, pat_a, pat_b, lens = compile_instances(default_table(), m.n)
    state = bytes(m.cells)
    for _ in range(steps):
        nbrs = kernels.expand(state, pos, pat_a, pat_b, lens)
        if not nbrs:
            break
        state = rng.choice(nbrs)
    return Mosaic(m.n, tuple(state))


def _small_knotted(m):
    """One component, some crossings, and an orbit of 2 to 64 members."""
    if _signature(m)[0] != 1 or count_crossings(m) == 0:
        return False
    try:
        return orbit(m, default_table(), budget=64).size >= 2
    except BudgetExceededError:
        return False


def _orbit_checks(a, b):
    """Reference values for one orbit input, computed from the scrambled copy."""
    table = default_table()
    orb_b = orbit(b, table)
    rep = min(orb_b.members)
    walk = orb_b.witness_for(a)  # b -> a; every move is an involution
    m = a
    for inst in reversed(walk):
        m = apply_move(inst, m)
    replays = m == b
    comps = len(trace_components(a))
    v = evaluate_jones(jones(to_diagram(a)), -1.0) if comps == 1 else None
    size = orb_b.size

    def check_orbit(out):
        got = json.loads(out)
        _require(got["size"] == size, f"orbit size {got['size']} != {size} of the scrambled copy")
        _require(got["representative"] == rep, "orbit representative differs from the scrambled copy's")

    def check_same(out):
        got = json.loads(out)
        _require(replays, "library witness does not replay a -> b")
        _require(got == {"same_orbit": True, "witness_moves": len(walk)},
                 f"same-orbit reported {got}, expected {len(walk)} moves")

    def check_chi(out):
        (got,) = json.loads(out)
        _require(got["orbit_size"] == size and got["orbit_representative"] == rep
                 and got["eigenvalue"] == 1.0, f"chi reported {got}")

    def check_components(out):
        got = json.loads(out)["eigenvalue"]
        _require(got == comps, f"components eigenvalue {got} != {comps}")

    def check_v(out):
        got = json.loads(out)["eigenvalue"]
        _require(math.isclose(got, v, rel_tol=1e-9, abs_tol=1e-9),
                 f"v_minus1 eigenvalue {got} != {v}")

    return size, comps, check_orbit, check_same, check_chi, check_components, check_v


def build_orbits(seed, workdir, root, smoke=False):
    rng = random.Random(seed)
    inputs = []  # (label, mosaic)
    if not smoke:
        inputs.append(("unknot4", _draw(rng, 4, lambda m: _signature(m) == (1, 0))))
        inputs.append(("circles4", _draw(rng, 4, lambda m: _signature(m) == (3, 0))))
    inputs.append(("knotted4", _draw(rng, 4, _small_knotted)))
    for i in range(3):
        inputs.append((f"unknot3_{i}", _draw(rng, 3, lambda m: _signature(m) == (1, 0))))
    inputs.append(("trefoil4", _load(_fixture(root, "trefoil4"))))
    inputs.append(("fig8_5", _load(_fixture(root, "fig8_5"))))

    commands = []
    paths = []
    sizes = {}
    warmup = None
    for label, a in inputs:
        b = _scramble(a, rng, 40)
        pa = _write(workdir, f"{label}_a.mosaic", a)
        pb = _write(workdir, f"{label}_b.mosaic", b)
        paths += [pa, pb]
        size, comps, c_orbit, c_same, c_chi, c_comp, c_v = _orbit_checks(a, b)
        sizes[label] = size
        cmds = [
            Command("mosaic orbit", ["mosaic", "orbit", pa] + COMMON, c_orbit),
            Command("mosaic same-orbit", ["mosaic", "same-orbit", pa, pb] + COMMON, c_same),
            Command("observable chi", ["observable", "chi", pa] + COMMON, c_chi),
            Command("observable invariant components",
                    ["observable", "invariant", pa, "--invariant", "components"] + COMMON, c_comp),
        ]
        if comps == 1:
            cmds.append(Command(
                "observable invariant v_minus1",
                ["observable", "invariant", pa, "--invariant", "v_minus1"] + COMMON, c_v))
        if label == "unknot3_0":  # the smallest input has every command kind
            warmup = [cmd.argv for cmd in cmds]
        commands += cmds

    # A 5x5 unknot orbit runs past any practical size; the command must stop
    # at its budget with a domain error, and counts as correct only then.
    # The start is fixed: from scrambled starts the time to reach the budget
    # varies by half.  From this start it takes longer than any 1348-member
    # closure, so the tail percentile does not flip between the two.
    budget = 300 if smoke else 3000
    p5 = _write(workdir, "unknot5.mosaic", CIRCLE5)
    paths.append(p5)
    commands.append(Command("mosaic orbit", ["mosaic", "orbit", p5, "--budget", str(budget)]
                            + COMMON, None, expect_code=1,
                            expect_stderr=f"orbit budget of {budget} members exceeded"))
    rng.shuffle(commands)
    return Workload("orbits", commands, warmup, paths, {"orbit_sizes": sizes})


# ---------------------------------------------------------------------------
# invariants


FOUR_VALENT = (7, 8, 9, 10)


def _knot_or_link(rng, c, components, tries=5000):
    """A random mosaic of size 8 to 12 with exactly c crossings and the given
    number of components.

    A random mosaic is drawn; c of its four-valent cells become crossings
    and the rest double arcs.  Loops that meet no four-valent cell are
    erased, and double arcs joining two different components are flipped
    (which merges them) until the count is reached.
    """
    for _ in range(tries):
        n = rng.randint(8, 12)
        cells = list(random_mosaic(n, rng).cells)
        quads = [i for i, t in enumerate(cells) if t in FOUR_VALENT]
        if len(quads) < c:
            continue
        chosen = set(rng.sample(quads, c))
        for i in quads:
            cells[i] = rng.choice((9, 10)) if i in chosen else rng.choice((7, 8))
        for strand in trace_components(Mosaic(n, tuple(cells))):
            if all(cells[cell] not in FOUR_VALENT for cell, _, _ in strand.passages):
                for cell, _, _ in strand.passages:
                    cells[cell] = 0
        while True:
            strands = trace_components(Mosaic(n, tuple(cells)))
            if len(strands) <= components:
                break
            owner = {}
            for k, strand in enumerate(strands):
                for cell, entry, exit_ in strand.passages:
                    owner[(cell, entry)] = owner[(cell, exit_)] = k
            # Tiles 7 and 8 both carry their W and E ends on different arcs.
            flips = [i for i, t in enumerate(cells)
                     if t in (7, 8) and owner[(i, "W")] != owner[(i, "E")]]
            if not flips:
                break
            i = rng.choice(flips)
            cells[i] = 15 - cells[i]
        m = Mosaic(n, tuple(cells))
        if len(strands) == components and count_crossings(m) == c:
            return m
    raise RuntimeError(f"no mosaic with {c} crossings and {components} components")


def build_invariants(seed, workdir, root, smoke=False):
    rng = random.Random(seed)
    max_c = 8 if smoke else 15
    commands = []
    paths = []
    shapes = []
    # Even crossing counts are knots, odd ones two-component links, so every
    # seed runs the same number of bracket states and Wirtinger commands.
    for c in range(max_c + 1):
        k = 1 if c % 2 == 0 else 2
        m = _knot_or_link(rng, c, k)
        path = _write(workdir, f"c{c:02d}_k{k}.mosaic", m)
        paths.append(path)
        shapes.append([m.n, c, k])

        def check_jones(out, k=k):
            v1 = sum(_poly(json.loads(out)).coeffs.values())
            _require(v1 == (-2) ** (k - 1), f"V(s=1) = {v1} for {k} components")

        commands.append(Command("mosaic jones", ["mosaic", "jones", path] + COMMON, check_jones))
        if k == 1:
            commands.append(Command("wirtinger", ["wirtinger", path] + COMMON,
                                    _wirtinger_check(c)))
    for name, want in PINNED.items():
        path = _fixture(root, name)
        c = count_crossings(_load(path))

        def check_pinned(out, want=want, name=name):
            _require(_poly(json.loads(out)) == want, f"{name} Jones differs from the pinned value")

        commands.append(Command("mosaic jones", ["mosaic", "jones", path] + COMMON, check_pinned))
        commands.append(Command("wirtinger", ["wirtinger", path] + COMMON, _wirtinger_check(c)))
    warmup = [commands[0].argv, commands[1].argv]  # c = 0 knot: jones, wirtinger
    rng.shuffle(commands)
    return Workload("invariants", commands, warmup, paths,
                    {"mosaics_n_crossings_components": shapes})


def _wirtinger_check(c):
    def check(out):
        got = json.loads(out)
        _require(got["abelianization_rank"] == 1, f"abelianization rank {got['abelianization_rank']}")
        _require(len(got["relations"]) == c, f"{len(got['relations'])} relations for {c} crossings")
    return check


# ---------------------------------------------------------------------------
# fields


def torus_jones(p, q):
    """Jones polynomial of the (p, q) torus knot in s = t^(1/2) units:
    t^((p-1)(q-1)/2) (1 - t^(p+1) - t^(q+1) + t^(p+q)) / (1 - t^2)."""
    num = {0: 1, p + 1: -1, q + 1: -1, p + q: 1}
    quot = {}
    for k in range(p + q - 1):
        quot[k] = num.get(k, 0) + quot.get(k - 2, 0)
    for k in (p + q - 1, p + q):  # the remainder must vanish
        if num.get(k, 0) + quot.get(k - 2, 0):
            raise ValueError(f"(1 - t^2) does not divide the ({p}, {q}) numerator")
    shift = (p - 1) * (q - 1) // 2
    return LaurentPolynomial({2 * (k + shift): v for k, v in quot.items()})


def _extract_check(p, q):
    want = torus_jones(p, q)
    verdicts = {}  # output text -> error message or None; outputs are deterministic

    def verdict(out):
        got = json.loads(out)
        try:
            _require(got["n_components"] == 1, f"{got['n_components']} components")
            _require(got["residual"] <= RESIDUAL_TOL, f"residual {got['residual']:.3g}")
            rep = _knot_type(got["components"][0], want)
            _require(rep.match, f"Jones {rep.computed.pretty('s')} is not the "
                                f"({p},{q}) torus knot's")
        except CheckFailed as exc:
            return str(exc)
        return None

    def check(out):
        if out not in verdicts:
            verdicts[out] = verdict(out)
        if verdicts[out]:
            raise CheckFailed(verdicts[out])
    return check


def _knot_type(points, want):
    """verify_knot_type on an output polyline.

    Refined vertices can zig-zag tangentially by far less than a grid cell,
    which makes some projections non-generic.  Every second, third or
    fourth vertex traces the same knot, since strands lie several cells
    apart, so those are tried next.
    """
    pts = np.asarray(points, dtype=float)
    for stride in (1, 2, 3, 4):
        try:
            return verify_knot_type(pts[::stride], want)
        except NonGenericProjectionError as exc:
            last = exc
    raise CheckFailed(f"no generic projection of the output polyline: {last}")


def _verify_check(out):
    got = json.loads(out)
    _require(got["match"], f"verify reported no match: {got['computed']}")


def _drift_check(out):
    got = json.loads(out)
    _require(got["norm_drift"] < NORM_DRIFT_TOL, f"norm drift {got['norm_drift']:.3g}")


def build_fields(seed, workdir, root, smoke=False):
    rng = random.Random(seed)
    circle = _draw(rng, 4, lambda m: _signature(m) == (1, 0))
    unknot = _write(workdir, "circle.mosaic", circle)
    jobs = [
        ("field verify", ["--field", "unknot", "--expect", unknot], _verify_check),
        ("field verify", ["--field", "milnor:2,3", "--expect", _fixture(root, "trefoil4")],
         _verify_check),
        ("field verify", ["--field", "rudolph_G", "--radius", "0.5",
                          "--expect", _fixture(root, "fig8_5")], _verify_check),
        ("field extract", ["--field", "milnor:2,5"], _extract_check(2, 5)),
        ("field extract", ["--field", "milnor:3,4"], _extract_check(3, 4)),
    ]
    resolutions = (48,) if smoke else (48, 64, 96)
    commands = []
    for kind, args, check in jobs:
        for res in resolutions:
            chart = rng.choice(("north", "south"))
            argv = (kind.split() + args + ["--resolution", str(res), "--chart", chart]
                    + COMMON)
            commands.append(Command(kind, argv, check))
    rng.shuffle(commands)

    steps = 2 if smoke else 60
    evolve = ["--resolution", "64"] + COMMON
    commands += [
        Command("evolve run", ["evolve", "run", "--hamiltonian", "free",
                               "--steps", str(steps)] + evolve, _drift_check),
        Command("evolve run", ["evolve", "run", "--hamiltonian", "harmonic",
                               "--steps", str(steps)] + evolve, _drift_check),
    ]
    notes = {"track_components": []}
    track_steps, every = (2, 1) if smoke else (20, 5)
    initial_closed = _track_start_closed()

    def check_track(out):
        got = json.loads(out)
        counts = [s["n_components"] for s in got["snapshots"]]
        if not notes["track_components"]:
            notes["track_components"] = counts
        first = got["snapshots"][0]
        _require(first["time"] == 0.0 and first["n_components"] == 1 and initial_closed,
                 f"t = 0 snapshot has {first['n_components']} components "
                 f"(closed: {initial_closed})")

    commands.append(Command("evolve track", [
        "evolve", "track", "--initial", "milnor:2,3", "--steps", str(track_steps),
        "--snapshot-every", str(every)] + evolve, check_track))

    smallest = [
        ["field", "verify"] + jobs[0][1] + ["--resolution", "48"] + COMMON,
        ["field", "extract"] + jobs[3][1] + ["--resolution", "48"] + COMMON,
        ["evolve", "run", "--hamiltonian", "free", "--steps", "1"] + evolve,
        ["evolve", "run", "--hamiltonian", "harmonic", "--steps", "1"] + evolve,
        ["evolve", "track", "--initial", "milnor:2,3", "--steps", "1",
         "--snapshot-every", "1"] + evolve,
    ]
    return Workload("fields", commands, smallest, [unknot], notes)


def _track_start_closed():
    """Whether the t = 0 nodal set that `evolve track` sees is closed."""
    cfg = EvolutionConfig(resolution=64)
    state = initial_knot_state(parse_field_spec("milnor:2,3"), cfg)
    snap = track_nodal([state], cfg).snapshots[0]
    return snap.curve is not None and all(snap.curve.closed_flags)


BUILDERS = {"orbits": build_orbits, "invariants": build_invariants, "fields": build_fields}
