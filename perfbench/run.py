"""knotfield benchmark: the user commands and the layers under them.

    python3 perfbench/run.py --workload orbits|invariants|fields --seed N \\
        --seconds S --trace 0|1 [--out FILE] [--smoke]

Run it from anywhere; it measures the knotfield sources in `src/` next to
this directory.  The workload's inputs are generated from the seed, and
its commands run in-process through `knotfield.cli.main(argv)` in a
separate workload process: one client with one thread in a closed loop
(each command starts after the previous one returns), `--threads 1` on
every command, and the BLAS/OpenMP thread variables pinned to 1.  Every
output is checked off the clock.

The command list runs `round(S / nominal batch time)` times, so a run
measures for about S seconds and two runs with the same S take the same
number of samples.  `--trace 1` alternates untraced and traced batches
(half as many of each), prints the per-layer metrics of the traced ones,
and reports tracing overhead as traced minus untraced `wall_s`.

Set-up time is measured in fresh processes (see probe.py), five times.

Every time is divided by the machine's slowdown while it was measured
(calibrate.py): a fixed reference computation runs before and after each
command, off the clock, and the command's latency is divided by how much
slower than its reference time that computation ran around it.  The raw
times and the slowdowns are in the report.

Stdout: one line per metric with its unit, then a JSON report (environment,
tail percentile and sample count, failures, per-snapshot notes), and last
a JSON line {"correct", "attempted", "failed", "metrics"}.  `--out FILE`
also writes the report and metrics to FILE for compare.py.  `--smoke`
shrinks every workload to a few seconds for the self-test.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("orbits", "invariants", "fields")
# About the seconds one batch of each workload takes on a busy 2-CPU machine
# with the pure-Python kernel; only turns --seconds into a batch count.
NOMINAL_BATCH_S = {"orbits": 14.0, "invariants": 3.5, "fields": 13.0}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = 5
WORKER_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 20
TAIL_BEYOND = 10  # the tail percentile is the highest with this many samples beyond it

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "cmd_p50_ms": "ms", "cmd_tail_ms": "ms",
             "ok_frac": "ratio", "peak_rss_mb": "MB"}


def child_env():
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def git_sha():
    """HEAD of the repository this benchmark sits at the root of, if any."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def tail(samples):
    """(value, percentile): the highest sample with TAIL_BEYOND samples above it."""
    xs = sorted(samples)
    rank = len(xs) - TAIL_BEYOND
    if rank < 1:
        return xs[-1], 100.0
    return xs[rank - 1], 100.0 * rank / len(xs)


def by_kind(kinds, latencies):
    """Median latency in ms and sample count per command kind, across batches."""
    groups = {}
    for i, lat in enumerate(latencies):
        groups.setdefault(kinds[i % len(kinds)], []).append(lat)
    return {k: {"median_ms": statistics.median(v) * 1e3, "samples": len(v)}
            for k, v in sorted(groups.items())}


def time_probe(warmup_path, env):
    """(seconds from starting a fresh probe process until it is ready to
    time, the machine's slowdown measured right after)."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "probe.py"), str(ROOT), warmup_path],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    watchdog = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        rest, err = proc.communicate()
    finally:
        watchdog.cancel()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode}): {err.strip()[-500:]}")
    return elapsed, float(rest)


def run_worker(args, repeats, workdir, env):
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT), "--workdir", workdir,
           "--workload", args.workload, "--seed", str(args.seed), "--repeats", str(repeats),
           "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(args):
    repeats = 1 if args.smoke else max(
        1, round(args.seconds / NOMINAL_BATCH_S[args.workload] / (2 if args.trace else 1)))
    env = child_env()
    workroot = ROOT / ".perfbench_work"
    workroot.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=workroot)
    try:
        raw = run_worker(args, repeats, workdir, env)
        warmup = os.path.join(workdir, "warmup.json")
        raw["setups"] = [time_probe(warmup, env) for _ in range(SETUP_PROBES)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workroot.rmdir()
        except OSError:
            pass  # another run is using it
    raw["repeats"] = repeats
    return raw


def scaled(batch):
    """Command latencies of a batch, each divided by the machine's slowdown
    around it."""
    return [t / slow for t, slow in zip(batch["latencies"], batch["slowdowns"])]


def summarize(args, raw):
    # Every time is scaled by the machine's slowdown while it was measured.
    batches = raw["batches"]
    walls = [sum(scaled(b)) for b in batches]
    lat = [t for b in batches for t in scaled(b)]
    tail_s, tail_pct = tail(lat)
    failed = len(raw["failures"])
    attempted = raw["attempted"]
    e2e = {
        "setup_s": statistics.median(t / slow for t, slow in raw["setups"]),
        "wall_s": statistics.median(walls),
        "cmd_p50_ms": statistics.median(lat) * 1e3,
        "cmd_tail_ms": tail_s * 1e3,
        "ok_frac": 1.0 - failed / attempted,
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in raw["layers"].items()}
        overhead = (statistics.median(sum(scaled(b)) for b in raw["traced_batches"])
                    - e2e["wall_s"])
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": {
            "backend": raw["backend"],
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": raw["numpy"],
            "git_sha": git_sha(),
            "seed": args.seed,
            "threads": {var: "1" for var in THREAD_VARS},
            "PYTHONHASHSEED": "0",
        },
        "end_to_end": e2e,
        "failed_frac": failed / attempted,
        "cmd_tail": {"percentile": tail_pct, "samples": len(lat)},
        "batches": raw["repeats"],
        "commands_per_batch": len(raw["kinds"]),
        "median_ms_by_kind": by_kind(raw["kinds"], lat),
        "raw_wall_s_batches": [sum(b["latencies"]) for b in batches],
        "slowdown_batches": [b["slowdown"] for b in batches],
        "raw_traced_wall_s_batches": [sum(b["latencies"]) for b in raw["traced_batches"]],
        "raw_setup_s_probes": [t for t, _ in raw["setups"]],
        "slowdown_probes": [slow for _, slow in raw["setups"]],
        "inputs_digest": raw["digest"],
        "notes": raw["notes"],
        "failures": raw["failures"][:20],
        "errors": raw["errors"],
    }
    if args.trace:
        report["trace_overhead_s"] = metrics["trace.overhead_s"]["value"]
    final = {"correct": not raw["failures"] and not raw["errors"], "attempted": attempted,
             "failed": failed, "metrics": metrics}
    return report, final


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=24)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--out", default=None, help="also write the report and metrics here")
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, one batch")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "knotfield" / "__init__.py").is_file():
        print(f"error: no knotfield sources at {ROOT / 'src' / 'knotfield'}", file=sys.stderr)
        return 2
    try:
        raw = measure(args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report, final = summarize(args, raw)

    e2e = report["end_to_end"]
    print(f"{args.workload} seed {args.seed}: {raw['repeats']} batches of "
          f"{len(raw['kinds'])} commands, backend {raw['backend']}")
    for name, value in e2e.items():
        note = (f"  (p{report['cmd_tail']['percentile']:.1f} of {report['cmd_tail']['samples']})"
                if name == "cmd_tail_ms" else "")
        print(f"  {name:<12} {value:12.6g} {E2E_UNITS[name]}{note}")
    print(f"  {'failed_frac':<12} {report['failed_frac']:12.6g} ratio")
    if args.trace:
        for name, m in final["metrics"].items():
            print(f"  {name:<36} {m['value']:14.6g} {m['unit']}")
    for line in report["failures"] + report["errors"]:
        print(f"  FAILED {line}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"report": report, "metrics": final["metrics"]}, fh, indent=1)
    print(json.dumps(report))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
