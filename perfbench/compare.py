"""Set two benchmark results side by side.

    python3 perfbench/compare.py BASE.json NEW.json

Both files come from `run.py --out`.  The comparison is refused (exit 2)
when the two were measured with different move-kernel backends, or on
different workloads or trace modes, so a number from the pure-Python
kernel is never set against one from the compiled kernel.
"""

from __future__ import annotations

import json
import sys


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    base, new = [], []
    for path, side in zip(argv, (base, new)):
        with open(path) as fh:
            side.append(json.load(fh))
    base, new = base[0], new[0]
    b_env, n_env = base["report"]["environment"], new["report"]["environment"]
    if b_env["backend"] != n_env["backend"]:
        print(f"refused: backends differ ({b_env['backend']} vs {n_env['backend']})",
              file=sys.stderr)
        return 2
    for key in ("workload", "trace"):
        if base["report"][key] != new["report"][key]:
            print(f"refused: {key} differs ({base['report'][key]} vs {new['report'][key]})",
                  file=sys.stderr)
            return 2
    print(f"{base['report']['workload']}, backend {b_env['backend']}: "
          f"{b_env['git_sha'] or 'unknown'} -> {n_env['git_sha'] or 'unknown'}")
    for name, m in base["metrics"].items():
        b = m["value"]
        n = new["metrics"].get(name, {}).get("value")
        if n is None:
            print(f"  {name:<36} {b:12.6g} {'missing':>12}")
            continue
        change = f"{(n - b) / b:+8.1%}" if b else "     n/a"
        print(f"  {name:<36} {b:12.6g} {n:12.6g} {change} {m['unit']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
