"""Smoke-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at smoke size (`run.py --smoke`) with two seeds
untraced and one seed traced.  Each run must be correct with no failed
command and print exactly the metric names BENCHMARK.json lists for its
mode; a second seed must change the inputs but not the metric names.
Last, a copy of the benchmark without the knotfield sources must fail
without printing a result.  Exit code 0 when everything holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, seed, trace, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run([sys.executable, str(script), "--workload", workload,
                           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
                           "--smoke"], cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc


def main():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    names = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    problems = []
    for w in (wl["name"] for wl in spec["workloads"]):
        digests = {}
        for seed, trace in ((1, 0), (2, 0), (1, 1)):
            before = len(problems)
            proc = run(w, seed, trace)
            tag = f"{w} seed {seed} trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
            else:
                lines = proc.stdout.strip().splitlines()
                report, final = json.loads(lines[-2]), json.loads(lines[-1])
                if not final["correct"] or final["failed"] or report["failed_frac"] != 0:
                    problems.append(f"{tag}: failures {report['failures'] + report['errors']}")
                if set(final["metrics"]) != names[trace]:
                    problems.append(f"{tag}: metric names differ from BENCHMARK.json: "
                                    f"{sorted(set(final['metrics']) ^ names[trace])}")
                if trace == 0:
                    digests[seed] = report["inputs_digest"]
            print(f"{tag}: {'ok' if len(problems) == before else 'FAILED'}", flush=True)
        if len(set(digests.values())) != 2:
            problems.append(f"{w}: seeds 1 and 2 gave the same inputs")

    # Without the sources next to it the benchmark must refuse to report.
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="selftest-", dir=ROOT / ".perfbench_work"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("orbits", 1, 0, cwd=bare, script=bare / HERE.name / "run.py")
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("the benchmark ran without the knotfield sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            (ROOT / ".perfbench_work").rmdir()
        except OSError:
            pass

    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
