#!/usr/bin/env python3
"""Mutation checks: deliberate faults that the tests must catch.

Each mutant is one exact text replacement in one file of the repository,
with the tests expected to fail once it is made.  For every mutant this
copies `src/`, `tests/` and `pyproject.toml` into a fresh directory, makes
the replacement there (its old text must occur exactly once), and runs
pytest on the named tests in the copy.  The mutant is caught when pytest
fails.  The repository itself is never written.

    python tools/mutants.py                       # every mutant
    python tools/mutants.py delta-sign-flipped    # some, by name
    python tools/mutants.py --workdir DIR         # copies under DIR

Prints one line per mutant and exits 1 if any survived.
"""

import argparse
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str  # occurs exactly once in file
    new: str
    tests: tuple  # pytest node ids, at least one of which must fail


MUTANTS = (
    Mutant("delta-sign-flipped", "src/knotfield/kernels.py",
           "[pat_b - pat_a, pat_a - pat_b]", "[pat_a - pat_b, pat_b - pat_a]",
           ("tests/test_kernels.py::test_expand_matches_oracle",)),
    Mutant("delta-rows-unsorted", "src/knotfield/kernels.py",
           "                    delta[order])", "                    delta)",
           ("tests/test_kernels.py::test_expand_matches_oracle",)),
    Mutant("sources-without-chunk-offset", "src/knotfield/kernels.py",
           "sources += (rows + start).tolist()", "sources += rows.tolist()",
           ("tests/test_kernels.py::test_expand_level_matches_oracle",
            "tests/test_orbits.py::test_bfs_order_matches_oracle")),
    Mutant("source-instance-sort-dropped", "src/knotfield/kernels.py",
           '        order = np.argsort(rows * n_inst + inst, kind="stable")\n'
           "        rows, inst, entry = rows[order], inst[order], entry[order]\n", "",
           ("tests/test_kernels.py::test_expand_matches_oracle",)),
    Mutant("witness-takes-last-match", "src/knotfield/orbits.py",
           "insts[instances[neighbors.index(state)]]",
           "insts[instances[len(neighbors) - 1 - neighbors[::-1].index(state)]]",
           ("tests/test_orbits.py::test_witness_takes_the_first_of_two_moves_to_one_state",)),
    Mutant("rank-unites-over-with-input", "src/knotfield/wirtinger.py",
           "((out, inp) for out, _, inp in p.relations)",
           "((over, inp) for _, over, inp in p.relations)",
           ("tests/test_wirtinger.py::test_class_count_matches_oracle_on_random_presentations",)),
    Mutant("classes-root-reversed", "src/knotfield/wirtinger.py",
           "parent[ra] = rb", "parent[rb] = ra",
           ("tests/test_wirtinger.py::test_fixture_presentations_pinned",)),
    Mutant("rank-counts-complement", "src/knotfield/wirtinger.py",
           "return len(set(roots.values()))",
           "return len(p.generators) - len(set(roots.values()))",
           ("tests/test_wirtinger.py::test_trefoil_presentation",
            "tests/test_wirtinger.py::test_class_count_matches_oracle_on_random_presentations")),
)


def mutate(mutant, root):
    """Make the mutant's replacement in the tree at root."""
    path = pathlib.Path(root) / mutant.file
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.name}: old text occurs {text.count(mutant.old)} "
                         f"times in {mutant.file}, not once")
    path.write_text(text.replace(mutant.old, mutant.new))


def run(mutant, workdir):
    """(caught, seconds) for one mutant, run in a fresh copy under workdir."""
    copy = pathlib.Path(tempfile.mkdtemp(prefix=f"{mutant.name}-", dir=workdir))
    try:
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy2(ROOT / "pyproject.toml", copy)
        mutate(mutant, copy)
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p",
                               "no:cacheprovider", *mutant.tests],
                              cwd=copy, env=env, capture_output=True, text=True)
        return proc.returncode != 0, time.perf_counter() - t0
    finally:
        shutil.rmtree(copy, ignore_errors=True)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("names", nargs="*", help="mutants to run (default: all)")
    ap.add_argument("--workdir", help="directory for the copies (default: a temporary one)")
    args = ap.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in by_name]
    if unknown:
        ap.error(f"unknown mutants: {', '.join(unknown)}")
    chosen = [by_name[n] for n in args.names] or list(MUTANTS)
    survived = 0
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(dir=args.workdir) as workdir:
        for mutant in chosen:
            caught, seconds = run(mutant, workdir)
            survived += not caught
            print(f"{'caught  ' if caught else 'SURVIVED'} {mutant.name} ({seconds:.1f} s)",
                  flush=True)
    print(f"{len(chosen) - survived} of {len(chosen)} caught in "
          f"{time.perf_counter() - start:.0f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
