#!/usr/bin/env python3
"""Line trace: which lines of `src/knotfield` do neither the tests nor the
benchmark run?

Runs the tier-1 tests (pytest over `tests/`), then each workload that
`BENCHMARK.json` declares, through the command it declares, with a short
`--seconds`.  Every Python process they start, the test subprocesses and
the benchmark's workers and set-up probes included, traces the lines it
executes in `src/knotfield` with `sys.settrace` and `threading.settrace`
and writes them to a file of its own when it exits.  The tracer is a
`sitecustomize` module in a temporary directory put first on PYTHONPATH,
which child processes inherit.  A process that is killed writes nothing.

    python tools/unreached.py               # tests, then every workload
    python tools/unreached.py --seconds 4   # longer benchmark runs

Prints every executable line of `src/knotfield` that no process reached,
as `path:line: source`, then a count.  A line is executable when the
compiled module maps some bytecode to it.  Failing tests or workloads are
reported on stderr and do not stop the trace (tracing slows every process,
so timing checks may fail).  The repository and the benchmark are only
read; the benchmark's own scratch directory is the one thing its runs
write.
"""

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "knotfield"

# The tracer each process imports at start-up.  Only frames of files under
# the package are traced line by line; every other frame is left alone.
HOOK = '''
import atexit, os, sys, threading

_PREFIX = {prefix!r}
_OUT = {out!r}
_hits = set()
_ours = {{}}


def _line(frame, event, arg):
    if event == "line":
        _hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    name = frame.f_code.co_filename
    mine = _ours.get(name)
    if mine is None:
        mine = _ours[name] = os.path.abspath(name).startswith(_PREFIX)
    return _line if mine else None


def _dump():
    import json

    sys.settrace(None)
    hits = {{}}
    for name, line in _hits:
        hits.setdefault(os.path.abspath(name), []).append(line)
    path = os.path.join(_OUT, f"hits-{{os.getpid()}}-{{id(hits)}}.json")
    with open(path, "w") as fh:
        json.dump(hits, fh)


atexit.register(_dump)
threading.settrace(_call)
sys.settrace(_call)
'''


def executable_lines(path):
    """Line numbers that some bytecode of the module at path maps to."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def traced_env(hookdir):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(hookdir), str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # no __pycache__ written into the repository
    return env


def run(label, argv, env):
    print(f"running {label}: {' '.join(argv)}", file=sys.stderr, flush=True)
    proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        print(f"  {label} exited {proc.returncode}: {proc.stderr.strip()[-500:]}",
              file=sys.stderr, flush=True)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=int, default=1,
                    help="--seconds of each benchmark run (default 1)")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = pathlib.Path(tempfile.mkdtemp(prefix="unreached-"))
    try:
        hookdir, out = work / "hook", work / "hits"
        hookdir.mkdir()
        out.mkdir()
        (hookdir / "sitecustomize.py").write_text(
            HOOK.format(prefix=str(PACKAGE) + os.sep, out=str(out)))
        env = traced_env(hookdir)
        run("tier-1 tests", [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                             "--continue-on-collection-errors"], env)
        command = [sys.executable if part in ("python", "python3") else part
                   for part in bench["command"]]
        for workload in bench["workloads"]:
            run(f"workload {workload['name']}",
                command + ["--workload", workload["name"], "--seed", "1",
                           "--seconds", str(args.seconds), "--trace", "1"], env)
        hits = {}
        for dump in out.glob("hits-*.json"):
            for name, lines in json.loads(dump.read_text()).items():
                hits.setdefault(name, set()).update(lines)
        processes = len(list(out.glob("hits-*.json")))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    missed = total = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text().splitlines()
        lines = executable_lines(path)
        seen = hits.get(str(path), set())
        total += len(lines)
        for line in sorted(lines - seen):
            missed += 1
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"{missed} of {total} executable lines in src/knotfield unreached "
          f"({processes} processes traced)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
