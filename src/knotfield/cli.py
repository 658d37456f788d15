"""Command-line interface.

One binary, subcommand groups:

    mosaic validate|show|orbit|same-orbit|jones
    observable chi|invariant
    wirtinger
    field eval|extract|verify|fiber
    evolve run|track

Exit codes: 0 success, 1 domain error (bad input data, failed validation),
2 usage error.  Every error path prints one line starting with "error: ".
Outputs are deterministic: no wall clock and no unseeded randomness;
--threads is accepted for compatibility and has no effect.  A JSON manifest
describing the run is written to --manifest, or else next to --out when that
is a regular file, so results can be reproduced.

`main` parses an argv that names a command (`argv[:2]`, or `argv[:1]` for
`wirtinger`) with that command's own parser, read off the one cached parser
tree, in a namespace that already holds `group` (and `cmd`).  Anything the
command's parser leaves over, and any argv that names no command, goes to
the full tree, which prints what it always printed.  In-process callers
(perfbench, the tests) pay the parse on every call, so skipping the
top-level and group parsers is worth it there.

numpy and the modules that import it (orbits, states, rows, fields,
extraction, project, evolution) are imported inside the handlers that use
them, so `mosaic validate|show|jones` and `wirtinger` start without numpy.

`field extract` and `field fiber` write their JSON coordinate arrays
through one encoder, `_json_rows`: the bytes json.dumps gives for every
value rounded by round(v, 12), built with numpy over chunks of
`_JSON_CHUNK` values from 4-byte records; the scalar keys still go through
json.dumps.  Their text formats (CSV, OBJ) are one %-format per array, in
`extraction`.  `evolve track` matches components greedily by Hausdorff
distance, trying them in order of bounding-box gap and stopping once the
gap exceeds the best distance (`evolution._match`).
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import os
import sys

from . import __version__
from .errors import KnotfieldError
from . import mosaic as mz
from .diagram import evaluate_jones, jones, to_diagram
from .moves import DEFAULT_BUDGET, default_table
from .numerals import read_float, read_int
from .wirtinger import abelianization_rank, wirtinger


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise KnotfieldError(f"cannot read {path}: {exc}") from exc


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise KnotfieldError(f"cannot write {path}: {exc}") from exc


def _load_mosaic(path: str) -> mz.Mosaic:
    return mz.load(_read(path))


def _grid(args):
    from .extraction import SampleGrid

    return SampleGrid(chart=args.chart, resolution=args.resolution,
                      extent=args.extent, radius=args.radius)


def _add_grid_flags(p):
    p.add_argument("--chart", default="north", choices=["north", "south"])
    p.add_argument("--resolution", type=read_int, default=64)
    p.add_argument("--extent", type=read_float, default=3.0)
    p.add_argument("--radius", type=read_float, default=1.0)


# --- subcommand handlers: return (text, exit_code) ---

def _cmd_mosaic_validate(args):
    m = _load_mosaic(args.file)
    rep = mz.validate(m)
    if args.format == "json":
        out = json.dumps({"valid": rep.valid,
                          "bad_edges": [list(e) for e in rep.bad_edges]})
    else:
        lines = ["valid" if rep.valid else "invalid"]
        lines += [f"edge {kind} ({r},{c}): {reason}"
                  for kind, r, c, reason in rep.bad_edges]
        out = "\n".join(lines)
    return out, 0 if rep.valid else 1


def _cmd_mosaic_show(args):
    m = _load_mosaic(args.file)
    if args.format == "json":
        return mz.to_json(m), 0
    return mz.encode(m).rstrip("\n"), 0


def _cmd_mosaic_orbit(args):
    from .orbits import orbit

    m = _load_mosaic(args.file)
    orb = orbit(m, default_table(), budget=args.budget)
    if args.format == "json":
        payload = {"size": orb.size, "representative": orb.label}
        if args.members:
            payload["members"] = sorted(orb.members)
        return json.dumps(payload), 0
    lines = [f"orbit size: {orb.size}", "representative:", orb.label.rstrip("\n")]
    if args.members:
        lines += ["members:"] + sorted(orb.members)
    return "\n".join(lines), 0


def _cmd_mosaic_same_orbit(args):
    from .orbits import same_orbit

    a, b = _load_mosaic(args.file_a), _load_mosaic(args.file_b)
    same, witness = same_orbit(a, b, default_table(), budget=args.budget)
    moves = len(witness) if witness is not None else None
    if args.format == "json":
        return json.dumps({"same_orbit": same, "witness_moves": moves}), 0
    return (f"same orbit: {'yes' if same else 'no'}"
            + (f" ({moves} moves)" if same else "")), 0


def _cmd_mosaic_jones(args):
    m = _load_mosaic(args.file)
    v = jones(to_diagram(m))
    if args.format == "json":
        return json.dumps(v.to_json("t^(1/2)")), 0
    return v.pretty("s"), 0


def _cmd_observable_chi(args):
    from .states import chi

    m = _load_mosaic(args.file)
    obs = chi(m, default_table(), budget=args.budget)
    if args.format == "json":
        return obs.to_json(), 0
    (oid,) = obs.eigenvalue
    return (f"projector onto one orbit\norbit size: {obs.orbit_sizes[oid]}\n"
            f"representative:\n{oid.rstrip(chr(10))}"), 0


# Orbits with fewer members than this are evaluated member by member with
# the Python strand walk: on fewer rows, the batched walk's fixed numpy cost
# is more than it saves.  Measured on 3x3 and 4x4 orbits, the batch breaks
# even at about 12 members for components and 20 for v_minus1.
_BATCH_MEMBERS = 20


def _by_size(per_mosaic, per_rows, n):
    """A function of an orbit's member rows: per_mosaic on each member of a
    small orbit, per_rows on the rows of a larger one."""
    def values(rows):
        if len(rows) < _BATCH_MEMBERS:
            return (per_mosaic(mz.Mosaic(n, tuple(r))) for r in rows.tolist())
        return per_rows(rows)

    return values


def _v_minus1(n):
    """V(-1) of each member, bracketing each distinct diagram once: an
    orbit's members share few diagrams.  The memo lives as long as one
    observable."""
    import numpy as np
    from .rows import row_diagrams

    values = {}

    def of(d):
        if d not in values:
            values[d] = evaluate_jones(jones(d), -1.0)
        return values[d]

    def of_rows(rows):
        diagrams, index = row_diagrams(rows, n)
        return np.array([of(d) for d in diagrams])[index].tolist()

    return _by_size(lambda m: of(to_diagram(m)), of_rows, n)


def _components(n):
    from .rows import strand_counts, trace_rows

    def of_rows(rows):
        row, strand, *_ = trace_rows(rows, n)
        return strand_counts(row, strand, len(rows)).astype(float).tolist()

    return _by_size(lambda m: float(len(mz.trace_components(m))), of_rows, n)


# Each entry makes a fresh function of an orbit's member rows for one
# observable on n x n mosaics.
_INVARIANTS = {"v_minus1": _v_minus1, "components": _components}


def _cmd_observable_invariant(args):
    from .states import row_observable

    m = _load_mosaic(args.file)
    values = _INVARIANTS[args.invariant](m.n)
    obs = row_observable(values, m.n, default_table(), budget=args.budget)
    val = obs.eigenvalue_for(m)
    if args.format == "json":
        return json.dumps({"invariant": args.invariant, "eigenvalue": val,
                           "observable": json.loads(obs.to_json())}), 0
    return f"{args.invariant} eigenvalue on this orbit: {val:.12g}", 0


def _cmd_wirtinger(args):
    m = _load_mosaic(args.file)
    pres = wirtinger(to_diagram(m))
    rank = abelianization_rank(pres)
    if args.format == "json":
        return json.dumps({"generators": list(pres.generators),
                           "relations": [list(r) for r in pres.relations],
                           "abelianization_rank": rank}), 0
    return pres.to_text() + f"abelianization rank: {rank}", 0


def _complex(s: str):
    """s as a complex number, or None: complex()'s syntax under `read_float`'s
    rule, with a trailing i read as j (only a trailing one, so that inf and nan parse)."""
    s = s.strip()
    if s.endswith("i"):
        s = s[:-1] + "j"
    try:
        return read_float(s, complex)
    except ValueError:
        return None


def _parse_complex(s: str) -> complex:
    v = _complex(s)
    if v is None:
        raise KnotfieldError(f"cannot parse complex number {s!r}")
    if not cmath.isfinite(v):
        raise KnotfieldError(f"complex number must be finite, got {s!r}")
    return v


def _format_complex(v: complex) -> str:
    """v as `a + bi` or `a - bi`, each part to 12 significant digits."""
    sign = "-" if math.copysign(1.0, v.imag) < 0 else "+"
    return f"{v.real:.12g} {sign} {abs(v.imag):.12g}i"


def _cmd_field_eval(args):
    import numpy as np
    from .fields import parse_field_spec, phase

    f = parse_field_spec(args.field)
    z, w = _parse_complex(args.z), _parse_complex(args.w)
    with np.errstate(over="ignore", invalid="ignore"):
        v = complex(f(z, w))
    if not cmath.isfinite(v):
        raise KnotfieldError(
            f"{f.name} is not finite at ({_format_complex(z)}, {_format_complex(w)})")
    payload = {"field": f.name, "re": v.real, "im": v.imag, "abs": abs(v)}
    try:
        payload["phase"] = phase(f, z, w)
    except KnotfieldError:
        payload["phase"] = None
    if args.format == "json":
        return json.dumps(payload), 0
    ph = "undefined" if payload["phase"] is None else f"{payload['phase']:.12g}"
    return (f"{f.name}({_format_complex(z)}, {_format_complex(w)}) = {_format_complex(v)}"
            f" (phase {ph})"), 0


# values per chunk of `_json_rows`, so that each chunk's temporaries stay in cache
_JSON_CHUNK = 1 << 13
# `_json_rows` records: 0 is empty, _SEP is ", " and _SEP + 1 "], [", _MARK
# stands for a value json writes; from _INT, _DOT and _DEC come blocks of
# 1000 indexed by a 3-digit group g, the block 1000 further on holding the
# stripped variant: the integer part g (then -g), ".ddd" in full (then
# stripped of trailing zeros but for its first digit), "ddd" (then stripped).
_SEP, _MARK, _INT, _DOT, _DEC = 1, 3, 4, 2004, 4004


@functools.cache
def _json_records():
    """The 4-byte `_json_rows` records as uint32, zero bytes padding them."""
    import numpy as np

    digits = [f"{g:03d}" for g in range(1000)]
    texts = (["", ", ", "], [", "\1"] + [str(g) for g in range(1000)]
             + [f"-{g}" for g in range(1000)] + ["." + d for d in digits]
             + ["." + d[0] + d[1:].rstrip("0") for d in digits]
             + digits + [d.rstrip("0") for d in digits])
    return np.frombuffer(b"".join(t.encode().ljust(4, b"\0") for t in texts), dtype=np.uint32)


def _json_rows(a) -> str:
    """json.dumps of a 2-D float array with each value v as round(v, 12),
    as one text, the same bytes json.dumps(a.tolist() rounded) gives.

    Where |v| * 10^12 rounds to an integer q below 10^15 and q is 0 or at
    least 10^8, repr(round(v, 12)) is fixed-point with at most 15
    significant digits: the digits of q / 10^12, sign first, trailing zeros
    but the first decimal stripped.  Those texts are assembled chunk by
    chunk from `_json_records`, one uint32 index per sign-and-integer part,
    per 3-digit group of decimals and per separator, and the padding bytes
    deleted.  Every other value (0 < |v| < 1e-4, |v| >= 1000, non-finite)
    is written by json itself.  rint(|v| * 1e12) is q except where the
    rounding of the product can carry it across a half-integer; those values
    go through round() as well.
    """
    import numpy as np

    a = np.asarray(a, dtype=float)
    if not a.size:
        return json.dumps(a.tolist())
    records, flat, cols = _json_records(), a.reshape(-1), a.shape[1]
    pow10 = np.array([1e12, 1e9, 1e6, 1e3, 1.0])[:, None]
    base = np.array([_INT, _DOT, _DEC, _DEC, _DEC], dtype=float)[:, None]
    parts = ["[["]
    for lo in range(0, flat.size, _JSON_CHUNK):
        v = flat[lo:lo + _JSON_CHUNK]
        with np.errstate(over="ignore", invalid="ignore"):
            t = np.abs(v * 1e12)
            q = np.rint(t)
            # t lies within t * 2^-52 of |v| * 10^12, and below 2^52 the
            # distance t - floor(t) - 1/2 is exact wherever it is under 1/4
            by_json = ~(q < 1e15) | (np.abs(t - np.floor(t) - 0.5) <= t * 2.0 ** -50)
            by_json |= (q < 1e8) & (q != 0)
        q[by_json] = 0
        head = q / pow10
        np.floor(head, out=head)  # head[k]: q's digits down to group k
        rest_zero = head * pow10 == q  # the groups after group k are all zero
        rest_zero[0] = np.signbit(v)  # the integer part's second block is -g
        index = head + base
        index[1:] -= 1000.0 * head[:-1]
        index += 1000.0 * rest_zero
        idx = np.empty((len(v), 6), dtype=np.intp)
        idx.T[1:] = index
        idx[:, 0] = _SEP
        idx[(-lo) % cols::cols, 0] = _SEP + 1  # the first value of a row
        if lo == 0:
            idx[0, 0] = 0
        k = np.flatnonzero(by_json)
        idx[k, 1], idx[k, 2:] = _MARK, 0
        text = records[idx].tobytes().translate(None, b"\0").decode()
        if len(k):
            pieces = text.split("\1")
            text = [None] * (2 * len(pieces) - 1)
            text[::2] = pieces
            text[1::2] = json.dumps([round(x, 12) for x in v[k].tolist()])[1:-1].split(", ")
            text = "".join(text)
        parts.append(text)
    parts.append("]]")
    return "".join(parts)


def _json_ending_in(payload, raw: str) -> str:
    """json.dumps(payload), whose last value is None, with the JSON text raw
    in that value's place."""
    return "".join([json.dumps(payload)[:-len("null}")], raw, "}"])


def _cmd_field_extract(args):
    from .extraction import extract, refine
    from .fields import parse_field_spec

    f = parse_field_spec(args.field)
    grid = _grid(args)
    curve = refine(extract(f, grid), f, grid)
    if args.format == "json":
        return _json_ending_in({
            "chart": curve.chart, "n_components": curve.n_components,
            "residual": curve.residual, "components": None},
            "[" + ", ".join(map(_json_rows, curve.components)) + "]"), 0
    if args.obj:
        return curve.to_obj().rstrip("\n"), 0
    return curve.to_csv().rstrip("\n"), 0


def _cmd_field_verify(args):
    from .extraction import extract
    from .fields import parse_field_spec
    from .project import expected_jones, verify_knot_type

    f = parse_field_spec(args.field)
    curve = extract(f, _grid(args))
    expect = expected_jones(_load_mosaic(args.expect))
    rep = verify_knot_type(curve, expect)
    if args.format == "json":
        return json.dumps({
            "match": rep.match, "mirrored": rep.mirrored,
            "computed": rep.computed.to_json("t^(1/2)"),
            "expected": rep.expected.to_json("t^(1/2)"),
            "crossings_raw": rep.crossings_raw,
            "crossings_reduced": rep.crossings_reduced}), 0
    return rep.to_text(), 0


def _cmd_field_fiber(args):
    from .extraction import fiber_to_csv, sample_fiber
    from .fields import parse_field_spec

    f = parse_field_spec(args.field)
    cloud = sample_fiber(f, args.theta, _grid(args), band=args.band)
    if args.format == "json":
        return _json_ending_in({"theta": args.theta, "n_points": len(cloud), "points": None},
                               _json_rows(cloud)), 0
    return fiber_to_csv(cloud).rstrip("\n"), 0


def _add_evolve_flags(p):
    p.add_argument("--hamiltonian", default="free", choices=["free", "harmonic"])
    p.add_argument("--box", type=read_float, default=16.0)
    p.add_argument("--resolution", type=read_int, default=64)
    p.add_argument("--dt", type=read_float, default=1e-3)
    p.add_argument("--steps", type=read_int, default=100)
    p.add_argument("--omega", default="1,1,1")
    p.add_argument("--initial", default="milnor:2,3",
                   help='field spec like "milnor:2,3", or "gaussian"')
    p.add_argument("--width", type=read_float, default=1.0, help="gaussian width")
    p.add_argument("--scale", type=read_float, default=None,
                   help="stereographic scale for knotted initial states")
    p.add_argument("--snapshot-every", type=read_int, default=0, dest="snapshot_every")
    p.add_argument("--snapshots-dir", default=None, dest="snapshots_dir",
                   help="write one .npy field dump per kept snapshot, each as its "
                        "snapshot arrives, so a run that fails part way leaves the "
                        "earlier ones")


def _saved(history, outdir):
    """Yield the states of history, writing each one's .npy file first."""
    import numpy as np

    for i, st in enumerate(history):
        try:
            if i == 0:
                os.makedirs(outdir, exist_ok=True)
            np.save(os.path.join(outdir, f"snapshot_{i:04d}.npy"), st.values)
        except OSError as exc:
            raise KnotfieldError(f"cannot write snapshots to {outdir}: {exc}") from exc
        yield st


def _evolution_stream(args):
    """The config and the stream of kept snapshots, each written to
    --snapshots-dir as it passes when that is given."""
    from . import evolution as ev
    from .fields import parse_field_spec

    try:
        omega = tuple(read_float(v) for v in args.omega.split(","))
    except ValueError:
        raise KnotfieldError(f"cannot parse --omega {args.omega!r}: expected numbers like 1,1,1")
    cfg = ev.EvolutionConfig(hamiltonian=args.hamiltonian, box=args.box,
                             resolution=args.resolution, dt=args.dt,
                             steps=args.steps, omega=omega)
    if args.initial == "gaussian":
        state = ev.gaussian_state(cfg, width=args.width)
    else:
        state = ev.initial_knot_state(parse_field_spec(args.initial), cfg,
                                      scale=args.scale)
    history = ev.snapshots(state, cfg, snapshot_every=args.snapshot_every)
    if args.snapshots_dir:
        history = _saved(history, args.snapshots_dir)
    return cfg, history


def _cmd_evolve_run(args):
    cfg, history = _evolution_stream(args)
    count = 0
    for final in history:  # the stream yields the initial state first
        count += 1
    payload = {"config": json.loads(cfg.to_json()),
               "snapshots": count,
               "final_time": final.time,
               "initial_norm": final.norm0,  # every snapshot carries it
               "final_norm": final.norm(),
               "norm_drift": final.norm_drift()}
    if args.format == "json":
        return json.dumps(payload), 0
    return "\n".join(f"{k}: {v}" for k, v in payload.items()), 0


def _cmd_evolve_track(args):
    from . import evolution as ev

    cfg, history = _evolution_stream(args)
    report = ev.track_nodal(history, cfg, min_amp=args.min_amp, roi=args.roi)
    if args.format == "json":
        return json.dumps({
            "snapshots": [{"time": s.time, "n_components": s.n_components,
                           "n_closed": s.n_closed, "n_open": s.n_open,
                           "displacement": s.displacement, "error": s.error}
                          for s in report.snapshots],
            "events": [list(e) for e in report.events],
            "max_displacement": report.max_displacement()}), 0
    out = report.to_csv().rstrip("\n")
    for t, kind, detail in report.events:
        out += f"\n# event t={t:.9g} {kind}: {detail}"
    return out, 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="knotfield",
                                  description="mosaic knots, knot invariants, and knotted nodal sets")
    top.add_argument("--version", action="version", version=f"knotfield {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", default="text", choices=["text", "json"])
    common.add_argument("--out", default=None, help="write output here instead of stdout")
    common.add_argument("--manifest", default=None, help="write the run manifest here")
    common.add_argument("--threads", type=read_int, default=1,
                        help="accepted for compatibility; has no effect")
    # Only the commands that close an orbit read a budget.
    closes_orbit = argparse.ArgumentParser(add_help=False, parents=[common])
    closes_orbit.add_argument("--budget", type=read_int, default=DEFAULT_BUDGET,
                              help="orbit search budget")
    sub = top.add_subparsers(dest="group")

    g = sub.add_parser("mosaic", help="mosaic file operations").add_subparsers(dest="cmd")
    p = g.add_parser("validate", parents=[common]); p.add_argument("file"); p.set_defaults(fn=_cmd_mosaic_validate)
    p = g.add_parser("show", parents=[common]); p.add_argument("file"); p.set_defaults(fn=_cmd_mosaic_show)
    p = g.add_parser("orbit", parents=[closes_orbit]); p.add_argument("file")
    p.add_argument("--members", action="store_true"); p.set_defaults(fn=_cmd_mosaic_orbit)
    p = g.add_parser("same-orbit", parents=[closes_orbit])
    p.add_argument("file_a"); p.add_argument("file_b"); p.set_defaults(fn=_cmd_mosaic_same_orbit)
    p = g.add_parser("jones", parents=[common]); p.add_argument("file"); p.set_defaults(fn=_cmd_mosaic_jones)

    g = sub.add_parser("observable", help="diagonal orbit observables").add_subparsers(dest="cmd")
    p = g.add_parser("chi", parents=[closes_orbit]); p.add_argument("file"); p.set_defaults(fn=_cmd_observable_chi)
    p = g.add_parser("invariant", parents=[closes_orbit]); p.add_argument("file")
    p.add_argument("--invariant", default="v_minus1", choices=sorted(_INVARIANTS))
    p.set_defaults(fn=_cmd_observable_invariant)

    p = sub.add_parser("wirtinger", parents=[common], help="knot group presentation")
    p.add_argument("file"); p.set_defaults(fn=_cmd_wirtinger)

    g = sub.add_parser("field", help="complex fields and nodal curves").add_subparsers(dest="cmd")
    p = g.add_parser("eval", parents=[common])
    p.add_argument("--field", required=True); p.add_argument("--z", required=True)
    p.add_argument("--w", required=True); p.set_defaults(fn=_cmd_field_eval)
    p = g.add_parser("extract", parents=[common])
    p.add_argument("--field", required=True); _add_grid_flags(p)
    p.add_argument("--obj", action="store_true", help="wavefront polyline output")
    p.set_defaults(fn=_cmd_field_extract)
    p = g.add_parser("verify", parents=[common])
    p.add_argument("--field", required=True)
    p.add_argument("--expect", required=True, help="mosaic file with the expected knot")
    _add_grid_flags(p); p.set_defaults(fn=_cmd_field_verify)
    p = g.add_parser("fiber", parents=[common])
    p.add_argument("--field", required=True)
    p.add_argument("--theta", type=read_float, required=True)
    p.add_argument("--band", type=read_float, default=0.05)
    _add_grid_flags(p); p.set_defaults(fn=_cmd_field_fiber)

    g = sub.add_parser("evolve", help="Schrodinger evolution on a periodic box").add_subparsers(dest="cmd")
    p = g.add_parser("run", parents=[common]); _add_evolve_flags(p); p.set_defaults(fn=_cmd_evolve_run)
    p = g.add_parser("track", parents=[common]); _add_evolve_flags(p)
    p.add_argument("--min-amp", type=read_float, default=None, dest="min_amp")
    p.add_argument("--roi", type=read_float, default=0.5)
    p.set_defaults(fn=_cmd_evolve_track)
    return top


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """`build_parser()`, built once per process: parsing leaves no state in
    the parser, and every call gets a fresh namespace."""
    return build_parser()


@functools.lru_cache(maxsize=1)
def _leaves(parser):
    """{argv prefix: (leaf parser, the namespace values the prefix sets)}
    for every command of parser: ("mosaic", "jones") for a command in a
    group, ("wirtinger",) for a group without commands."""
    table = {}

    def add(p, prefix, values):
        for action in p._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, child in action.choices.items():
                    add(child, prefix + (name,), {**values, action.dest: name})
                return
        table[prefix] = p, values

    add(parser, (), {})
    return table


def _parse_args(argv):
    """argv parsed as `_parser().parse_args` parses it (see the module
    docstring).  The full parser first reads every argument as a possible
    option of its own, where "--=..." fails, matching both --help and
    --version; such an argv goes to the full parser, which reports that."""
    parser = _parser()
    leaves = _leaves(parser)
    prefix = tuple(argv[:2]) if tuple(argv[:2]) in leaves else tuple(argv[:1])
    if prefix in leaves and not any(a.startswith("--=") for a in argv):
        leaf, values = leaves[prefix]
        args, rest = leaf.parse_known_args(argv[len(prefix):], argparse.Namespace(**values))
        if not rest:
            return args
    return parser.parse_args(argv)


def _attach_complex_values(argv):
    """argv with `field eval --z V` as `--z=V` where V is a complex number:
    argparse takes a V such as -0.2-0.7i, which starts with '-' and is not a
    plain negative number, for an option."""
    out = list(argv)
    if out[:2] == ["field", "eval"]:
        for i in range(len(out) - 2, 1, -1):
            if out[i] in ("--z", "--w") and _complex(out[i + 1]) is not None:
                out[i:i + 2] = [f"{out[i]}={out[i + 1]}"]
    return out


def _manifest(args, argv, code):
    inputs = [getattr(args, k) for k in ("file", "file_a", "file_b", "expect")
              if getattr(args, k, None)]
    return json.dumps({
        "tool": "knotfield", "version": __version__,
        "subcommand": f"{args.group} {getattr(args, 'cmd', '') or ''}".strip(),
        "argv": list(argv),
        "inputs": inputs,
        "output": args.out or "stdout",
        "exit_code": code,
        "deterministic": "outputs depend only on argv and input files; "
                         "--threads does not affect them"}, indent=2)


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = _parse_args(_attach_complex_values(argv))
    if not getattr(args, "fn", None):
        _parser().print_usage(sys.stderr)
        print("error: missing subcommand", file=sys.stderr)
        return 2
    try:
        text, code = args.fn(args)
        if args.out:
            _write(args.out, text + "\n")
        else:
            print(text)
            sys.stdout.flush()
        manifest_path = args.manifest or (
            args.out + ".manifest.json" if args.out and os.path.isfile(args.out) else None)
        if manifest_path:
            _write(manifest_path, _manifest(args, argv, code) + "\n")
    except KnotfieldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc or 'an allocation failed'}", file=sys.stderr)
        return 1
    except BrokenPipeError as exc:
        # the output still buffered goes to devnull when Python flushes at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write to stdout: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    raise SystemExit(main())
