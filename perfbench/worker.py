"""The workload process: one client, one thread, a closed loop.

Started by run.py with the thread variables pinned.  It generates the
workload's inputs from the seed, warms up, then runs the command list
`--repeats` times through `knotfield.cli.main(argv)`, each command starting
after the previous one returns.  With `--trace 1` every untraced batch is
followed by a traced batch of the same commands.  Outputs are checked
after each batch, off the clock.  The last line of stdout is a JSON
object with the raw measurements.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import sys
import traceback
from time import perf_counter

from calibrate import calibrate, slowdown

TIME_UNITS = ("s", "ms", "us")

def invoke(cli, argv):
    """Run one command in-process; return (exit_code, stdout, stderr, error)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)  # looked up per call, so a traced wrapper is used
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a command that raises is a failed command, not a crash
            code = None
            error = traceback.format_exc(limit=3)
    return code, out.getvalue(), err.getvalue(), error


def verdict(cmd, code, out, err, error, check_failed):
    """None when the command did what it must, else a one-line reason."""
    if error is not None:
        return f"raised: {error.strip().splitlines()[-1]}"
    if code != cmd.expect_code:
        return f"exit code {code}, expected {cmd.expect_code}: {err.strip()[:200]}"
    if cmd.expect_code != 0:
        return None if cmd.expect_stderr in err else f"stderr lacks {cmd.expect_stderr!r}"
    if cmd.check is None:
        return None
    try:
        cmd.check(out)
    except check_failed as exc:
        return f"check: {exc}"
    except Exception as exc:  # output the check cannot read, or a library error in it
        return f"check raised {exc!r}"
    return None


def run_batch(cli, workload, check_failed):
    """Time the command list once, calibrating before and after each command;
    then check every output.  Calibration and checks are off the clock."""
    gc.collect()
    latencies, results = [], []
    samples = [calibrate()]
    for cmd in workload.commands:
        t0 = perf_counter()
        res = invoke(cli, cmd.argv)
        latencies.append(perf_counter() - t0)
        samples.append(calibrate())
        results.append(res)
    failures = []
    for cmd, res in zip(workload.commands, results):
        why = verdict(cmd, *res, check_failed)
        if why is not None:
            files = " ".join(os.path.basename(a) for a in cmd.argv if a.endswith(".mosaic"))
            failures.append(f"{cmd.kind} {files}: {why}")
    batch = {"latencies": latencies,
             "slowdowns": [slowdown(pair) for pair in zip(samples, samples[1:])],
             "slowdown": slowdown(samples)}
    return batch, failures


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--repeats", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    import numpy
    import knotfield
    from knotfield import cli, kernels
    from knotfield.moves import default_table

    import tracing
    import workloads

    if not os.path.abspath(knotfield.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"knotfield imported from {knotfield.__file__}, not from {src}")
    default_table()
    workload = workloads.BUILDERS[args.workload](args.seed, args.workdir, args.root,
                                                 smoke=args.smoke)
    with open(os.path.join(args.workdir, "warmup.json"), "w") as fh:
        json.dump(workload.warmup, fh)
    errors, failures = [], []
    calibrate()  # first call pays for FFT planning
    for argv_ in workload.warmup:
        code, _, err, error = invoke(cli, argv_)
        if code != 0:
            errors.append(f"warm-up {' '.join(argv_[:2])}: exit {code} {err.strip()[:200]}"
                            f"{error or ''}")

    batches, traced, layer_runs = [], [], []
    attempted = 0
    for _ in range(args.repeats):
        batch, bad = run_batch(cli, workload, workloads.CheckFailed)
        batches.append(batch)
        failures += bad
        attempted += len(workload.commands)
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                batch, bad = run_batch(cli, workload, workloads.CheckFailed)
            finally:
                errors += [f"not restored: {name}" for name in tracer.uninstall()]
            traced.append(batch)
            layer_runs.append({k: (v / batch["slowdown"] if u in TIME_UNITS else v, u)
                               for k, (v, u) in tracer.metrics().items()})
            failures += [f"traced: {b}" for b in bad]
            attempted += len(workload.commands)

    layers = {}
    if layer_runs:
        for name, (_, unit) in layer_runs[0].items():
            layers[name] = (statistics.median(run[name][0] for run in layer_runs), unit)

    result = {
        "backend": kernels.BACKEND,
        "numpy": numpy.__version__,
        "digest": workload.digest(),
        "kinds": [cmd.kind for cmd in workload.commands],
        "batches": batches,
        "traced_batches": traced,
        "attempted": attempted,
        "failures": failures,
        "errors": errors,
        "layers": layers,
        "notes": workload.notes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
