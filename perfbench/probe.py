"""Set-up probe: a fresh process that does what a CLI user pays for before
any work, then says so.

    python3 perfbench/probe.py ROOT WARMUP_JSON

It imports `knotfield.cli`, loads the default move table, and runs each
warm-up command (one per command kind, on the workload's smallest input)
through `knotfield.cli.main`.  It then prints "ready"; run.py times the
probe from process start to that line.  Last it prints how much slower
than the reference the machine runs now (see calibrate.py).
"""

import contextlib
import io
import json
import os
import sys


def main():
    root, warmup_path = sys.argv[1], sys.argv[2]
    sys.path.insert(0, os.path.join(root, "src"))
    from knotfield import cli
    from knotfield.moves import default_table

    default_table()
    with open(warmup_path) as fh:
        warmup = json.load(fh)
    for argv in warmup:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            print(f"warm-up {' '.join(argv[:2])} exited {code}", file=sys.stderr)
            return 1
    print("ready", flush=True)

    from calibrate import calibrate, slowdown

    calibrate()  # first call pays for FFT planning
    print(slowdown([calibrate() for _ in range(5)]), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
