"""The mutant list of tools/mutants.py stays applicable; no mutant is run."""

import pathlib
import runpy

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
MUTANTS = runpy.run_path(str(ROOT / "tools" / "mutants.py"))["MUTANTS"]


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_old_text_occurs_once(mutant):
    assert mutant.new != mutant.old
    assert (ROOT / mutant.file).read_text().count(mutant.old) == 1


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_names_existing_tests(mutant):
    assert mutant.tests
    for node in mutant.tests:
        path, _, func = node.partition("::")
        assert f"\ndef {func}(" in (ROOT / path).read_text()


def test_mutant_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
