"""Move table sanity: involutions that preserve validity, components, Jones."""

import json
import os
import pathlib
import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from conftest import CHILD_ENV
from knotfield.errors import KnotfieldError, MoveTableError
from knotfield.diagram import jones, to_diagram
from knotfield.mosaic import Mosaic, random_mosaic, trace_components, validate
from knotfield.moves import (
    MoveInstance,
    MoveTemplate,
    apply,
    default_table,
    instances_for,
    templates_from_json,
    templates_to_json,
)

TABLE = default_table()
GENERATOR = pathlib.Path(__file__).resolve().parents[1] / "tools" / "make_move_table.py"


def test_table_size_and_names():
    assert len(TABLE) == 160
    names = [t.name for t in TABLE]
    assert len(set(names)) == len(names)
    assert sum(1 for n in names if n.startswith("planar")) == 128
    assert sum(1 for n in names if n.startswith("r1")) == 8
    assert sum(1 for n in names if n.startswith("r2")) == 8
    assert sum(1 for n in names if n.startswith("r3")) == 16


def test_table_json_roundtrip():
    assert templates_from_json(templates_to_json(TABLE)) == TABLE


def test_default_table_is_one_immutable_value():
    # Every command of a process reads the same table; no caller can change
    # the move set the next one gets.
    table = default_table()
    assert default_table() is table
    assert isinstance(table, tuple)
    assert isinstance(templates_from_json(templates_to_json(table)), tuple)
    with pytest.raises(AttributeError):
        table.append(table[0])
    with pytest.raises(TypeError):
        table[0] = table[1]
    with pytest.raises(AttributeError):
        table[0].pattern_a = table[0].pattern_b
    assert default_table() == templates_from_json(templates_to_json(TABLE))


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_generator_reproduces_shipped_table(hash_seed):
    # The generator's output must not depend on the string hash seed.
    code = ("import runpy, sys; g = runpy.run_path(sys.argv[1]); "
            "sys.stdout.write(g['table_text'](g['build_table']()))")
    built = subprocess.run([sys.executable, "-c", code, str(GENERATOR)],
                           env={**os.environ, "PYTHONHASHSEED": hash_seed},
                           capture_output=True, text=True, check=True).stdout
    shipped = (GENERATOR.parents[1] / "src/knotfield/data/moves_default.json").read_text()
    assert built == shipped


def test_template_hash_is_the_hash_of_its_fields():
    # Taken once at construction, the hash is still the one dataclass would
    # compute from every field on each call.
    for t in TABLE:
        assert hash(t) == hash((t.name, t.rows, t.cols, t.pattern_a, t.pattern_b))


def test_unpickled_template_hashes_in_its_own_process():
    # A template pickled where str hashes differ is rebuilt, not given the
    # other process's cached hash.
    code = ("import pickle, sys; from knotfield.moves import default_table; "
            "sys.stdout.buffer.write(pickle.dumps(default_table()))")
    for hash_seed in ("0", "1"):
        data = subprocess.run([sys.executable, "-c", code],
                              env={**CHILD_ENV, "PYTHONHASHSEED": hash_seed},
                              capture_output=True, check=True).stdout
        loaded = pickle.loads(data)
        assert loaded == TABLE and [hash(t) for t in loaded] == [hash(t) for t in TABLE]


def test_template_rejects_mismatched_interior_edge():
    # Tile 5 (W-E line) runs into a blank: the pattern's own edge dangles.
    # The other pattern is consistent, so only the first can be at fault.
    with pytest.raises(MoveTableError, match="pattern_a has mismatched interior edges"):
        MoveTemplate("bad", 1, 2, (5, 0), (5, 5))
    with pytest.raises(MoveTableError, match="pattern_b has mismatched interior edges"):
        MoveTemplate("bad", 1, 2, (5, 5), (0, 5))


def test_template_rejects_differing_boundary_signatures():
    # A W-E line and an N-S line touch different sides of their cell.
    with pytest.raises(MoveTableError, match="boundary signatures differ"):
        MoveTemplate("bad", 1, 1, (5,), (6,))
    # Same sides, different positions along them.
    with pytest.raises(MoveTableError, match="boundary signatures differ"):
        MoveTemplate("bad", 2, 1, (5, 0), (0, 5))
    MoveTemplate("ok", 2, 2, (5, 5, 0, 0), (1, 2, 3, 4))


_GOOD_ENTRY = {"name": "ok", "rows": 2, "cols": 2,
               "pattern_a": [5, 5, 0, 0], "pattern_b": [1, 2, 3, 4]}


@pytest.mark.parametrize("entry,message", [
    ({**_GOOD_ENTRY, "pattern_a": [5, 5, 0, 1.5]}, "entry 1: ok: pattern_a contains a bad tile id"),
    ({k: v for k, v in _GOOD_ENTRY.items() if k != "pattern_b"}, "entry 1 lacks pattern_b"),
    ({**_GOOD_ENTRY, "rows": "x"}, "entry 1: invalid literal"),
    ([3], "entry 1 is not an object"),
    ({**_GOOD_ENTRY, "rows": 2.7}, "entry 1: invalid literal 2.7 for rows"),
    ({**_GOOD_ENTRY, "rows": True}, "entry 1: invalid literal True for rows"),
    ({**_GOOD_ENTRY, "pattern_b": [True, 2, 3, 4]}, "pattern_b contains a bad tile id"),
    ({**_GOOD_ENTRY, "pattern_a": [5, 5, 0, 1.0]}, "pattern_a contains a bad tile id"),
    ({**_GOOD_ENTRY, "name": ["x"]}, r"entry 1: name \['x'\] is not a string"),
    ({**_GOOD_ENTRY, "name": 7}, "entry 1: name 7 is not a string"),
], ids=["float-tile", "no-pattern_b", "rows-not-a-number", "not-an-object",
        "fractional-rows", "bool-rows", "bool-tile", "integral-float-tile",
        "list-name", "int-name"])
def test_malformed_table_entry_is_a_move_table_error(entry, message):
    # the index counts from 0, so the bad entry follows one good one
    with pytest.raises(MoveTableError, match=message):
        templates_from_json(json.dumps([_GOOD_ENTRY, entry]))


def _table_text(*entries):
    return json.dumps([_GOOD_ENTRY, *entries])


@pytest.mark.parametrize("text,message", [
    (_table_text({**_GOOD_ENTRY, "rows": 4, "pattern_a": [0] * 8, "pattern_b": [0] * 8}),
     "move table entry 1: ok: pattern shape must be within 3x3"),
    (_table_text({**_GOOD_ENTRY, "pattern_b": [1, 2, 3]}),
     "move table entry 1: ok: pattern_b has 3 cells, expected 4"),
    (_table_text({**_GOOD_ENTRY, "pattern_b": _GOOD_ENTRY["pattern_a"]}),
     "move table entry 1: ok: patterns are identical"),
    (json.dumps(_GOOD_ENTRY), "move table must be a JSON list"),
    (_table_text(_GOOD_ENTRY), "move table entry 1: duplicate move name ok"),
], ids=["above-3x3", "wrong-cell-count", "identical-patterns", "not-a-list", "duplicate-name"])
def test_move_table_text_is_validated(text, message):
    with pytest.raises(MoveTableError) as exc:
        templates_from_json(text)
    assert str(exc.value) == message


def test_instance_fit_checking():
    inst = MoveInstance(TABLE[0], (3, 3))
    with pytest.raises(KnotfieldError):
        inst.check_fits(3)
    inst2 = MoveInstance(TABLE[0], (0, 0))
    inst2.check_fits(3)


def _acting_instances(m):
    """Instances whose pattern actually matches m (apply is not a no-op)."""
    return [inst for inst in instances_for(TABLE, m.n) if apply(inst, m) != m]


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_moves_are_involutions(seed):
    rng = random.Random(seed)
    m = random_mosaic(4, rng)
    for inst in _acting_instances(m)[:20]:
        m2 = apply(inst, m)
        assert apply(inst, m2) == m


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_moves_preserve_validity_and_components(seed):
    rng = random.Random(seed)
    m = random_mosaic(4, rng)
    n_comp = len(trace_components(m))
    for inst in _acting_instances(m)[:20]:
        m2 = apply(inst, m)
        assert validate(m2).valid
        assert len(trace_components(m2)) == n_comp


def test_moves_preserve_jones(trefoil, fig8):
    for m in (trefoil, fig8):
        v = jones(to_diagram(m))
        for inst in _acting_instances(m):
            assert jones(to_diagram(apply(inst, m))) == v


def test_apply_is_identity_off_pattern():
    # A non-matching instance fixes the state: the move acts as a
    # permutation with most basis labels as fixed points.
    blank = Mosaic(4, (0,) * 16)
    r3 = next(t for t in TABLE if t.name.startswith("r3"))
    assert apply(MoveInstance(r3, (0, 0)), blank) == blank
