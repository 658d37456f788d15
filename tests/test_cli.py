"""End-to-end CLI checks through main(), without spawning subprocesses
except where thread independence is the point."""

import argparse
import contextlib
import dataclasses
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import CHILD_ENV, crossing_mosaic, data_path
from oracles import oracle_orbit, round12

from knotfield import cli, diagram, evolution, extraction, fields, mosaic, orbits, rows
from knotfield.cli import main
from knotfield.diagram import to_diagram
from knotfield.extraction import SampleGrid, extract, refine
from knotfield.fields import parse_field_spec
from knotfield.moves import default_table
from knotfield.orbits import orbit

TREFOIL = data_path("trefoil4.mosaic")
FIG8 = data_path("fig8_5.mosaic")


def run_cli(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("knotfield ")


def test_missing_subcommand(capsys):
    code, out, err = run_cli(capsys, "mosaic")
    assert code == 2
    assert "error: missing subcommand" in err


def test_validate_ok(capsys):
    code, out, _ = run_cli(capsys, "mosaic", "validate", TREFOIL)
    assert code == 0
    assert out.strip() == "valid"


def test_validate_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.mosaic"
    bad.write_text("2\n9 0\n0 0\n")  # crossing tile on a 2x2 boundary
    code, out, err = run_cli(capsys, "mosaic", "validate", str(bad))
    assert code == 1
    assert out.splitlines()[0] == "invalid"


def test_validate_lists_every_bad_edge(tmp_path, capsys):
    # A lone line or arc in each corner: one fault on each outer side and
    # six inside, listed horizontal edges first, each kind row by row.
    bad = tmp_path / "bad.mosaic"
    bad.write_text("3\n5 0 6\n0 2 0\n6 0 5\n")
    code, out, _ = run_cli(capsys, "mosaic", "validate", str(bad))
    assert code == 1
    assert out == """invalid
edge h (0,2): connection point on outer boundary
edge h (1,2): mismatched interior edge
edge h (2,0): mismatched interior edge
edge h (2,1): mismatched interior edge
edge h (3,0): connection point on outer boundary
edge v (0,0): connection point on outer boundary
edge v (0,1): mismatched interior edge
edge v (1,2): mismatched interior edge
edge v (2,2): mismatched interior edge
edge v (2,3): connection point on outer boundary
"""


def test_missing_file(capsys):
    code, _, err = run_cli(capsys, "mosaic", "show", "/no/such/file")
    assert code == 1
    assert err.startswith("error: ")


def test_show_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "mosaic", "show", TREFOIL)
    assert code == 0
    assert out.splitlines()[0] == "4"


def test_jones_text_and_json(capsys):
    code, out, _ = run_cli(capsys, "mosaic", "jones", TREFOIL)
    assert code == 0
    assert "s^-8" in out
    code, out, _ = run_cli(capsys, "mosaic", "jones", TREFOIL, "--format", "json")
    payload = json.loads(out)
    assert payload["terms"] == {"-8": -1, "-6": 1, "-2": 1}


def test_orbit_size(capsys):
    code, out, _ = run_cli(capsys, "mosaic", "orbit", TREFOIL, "--format", "json")
    assert code == 0
    assert json.loads(out)["size"] == 2


@pytest.mark.parametrize("argv", [
    ["mosaic", "orbit", TREFOIL, "--budget", "-5"],
    ["mosaic", "same-orbit", TREFOIL, TREFOIL, "--budget", "0"],
    ["evolve", "run", "--resolution", "16", "--box", "8", "--steps", "2",
     "--initial", "gaussian", "--snapshot-every", "-1"],
])
def test_limits_below_range_rejected(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "must be at least" in err


_EVOLVE = ["evolve", "run", "--resolution", "16", "--box", "8", "--steps", "2"]

# trefoil4 re-spelled in ways int() reads, each with the start of its error:
# a signed header and an underscored tile, and every digit Arabic-Indic or fullwidth.
with open(TREFOIL) as _fh:
    _TREFOIL_TEXT = _fh.read()
_RESPELLED_TREFOILS = {
    "signed": ("+" + _TREFOIL_TEXT.replace(" 8 ", " 0_8 "), "bad header '+4'"),
    **{name: (_TREFOIL_TEXT.translate(str.maketrans("0123456789", "".join(
        chr(zero + d) for d in range(10)))), "bad header")
       for name, zero in (("arabic-indic", 0x660), ("fullwidth", 0xFF10))},
}


@pytest.mark.parametrize("mosaic_text,argv", [
    ('{"n": "x", "cells": [0]}', None),
    ('{"n": 1, "cells": ["a"]}', None),
    ('{"n": 1, "cells": 5}', None),
    ('{"n": 1, "cells": [1.5]}', None),
    ('{"n": 1, "cells": [0', None),
    (None, ["field", "eval", "--field", "milnor:2,x", "--z", "0", "--w", "1"]),
    (None, _EVOLVE + ["--initial", "milnor:2,x"]),
    (None, _EVOLVE + ["--initial", "gaussian", "--omega", "a"]),
    (None, ["field", "extract", "--field", "unknot", "--resolution", "32", "--extent", "nan"]),
    (None, ["field", "extract", "--field", "unknot", "--resolution", "32", "--radius", "nan"]),
    (None, ["field", "fiber", "--field", "unknot", "--theta", "0", "--resolution", "32",
            "--extent", "inf"]),
    (None, _EVOLVE + ["--box", "nan"]),
    (None, _EVOLVE + ["--initial", "gaussian", "--dt", "inf"]),
    (None, _EVOLVE + ["--initial", "gaussian", "--hamiltonian", "harmonic", "--omega", "1,inf,1"]),
    # a path below a regular file can be neither written nor created
    (None, ["mosaic", "show", TREFOIL, "--out", TREFOIL + "/x.txt"]),
    (None, _EVOLVE + ["--initial", "gaussian", "--snapshots-dir", TREFOIL + "/snaps"]),
    (None, _EVOLVE + ["--initial", "gaussian", "--width", "0"]),
    (None, _EVOLVE + ["--initial", "gaussian", "--width", "-1"]),
    (None, _EVOLVE + ["--initial", "gaussian", "--width", "nan"]),
    (None, _EVOLVE + ["--scale", "0"]),
    (None, _EVOLVE + ["--scale", "inf"]),
    (None, ["evolve", "track"] + _EVOLVE[2:] + ["--initial", "gaussian", "--min-amp", "nan"]),
    (None, ["evolve", "track"] + _EVOLVE[2:] + ["--initial", "gaussian", "--min-amp", "-1"]),
    (None, ["field", "fiber", "--field", "unknot", "--theta", "nan", "--resolution", "16"]),
    (None, ["field", "fiber", "--field", "unknot", "--theta", "0", "--band", "nan",
            "--resolution", "16"]),
    ("2\n0 0\n0 0\ngarbage\n", None),
    (None, ["field", "eval", "--field", "unknot", "--z", "nan", "--w", "1"]),
    (None, ["field", "eval", "--field", "unknot", "--z", "0", "--w", "nan"]),
    (None, ["field", "eval", "--field", "unknot", "--z", "1e400", "--w", "1"]),
    # propagators that overflow: one error line, no floating-point warnings
    (None, _EVOLVE + ["--initial", "gaussian", "--dt", "1e308"]),
    (None, _EVOLVE + ["--initial", "gaussian", "--dt", "1e308", "--hamiltonian", "harmonic"]),
    (None, _EVOLVE + ["--initial", "gaussian", "--box", "1e-300", "--steps", "1"]),
    # finite inputs whose field value, lattice spacing or chart embedding overflows
    (None, ["field", "eval", "--field", "milnor:2,3", "--z", "1e200", "--w", "0"]),
    (None, ["field", "eval", "--field", "rudolph_G", "--z", "1e200", "--w", "1"]),
    (None, ["field", "extract", "--field", "unknot", "--resolution", "16", "--extent", "1e308"]),
    (None, ["field", "extract", "--field", "unknot", "--resolution", "16", "--extent", "1e200"]),
    # V(-1) of a two-component link: the input file takes the place of MOSAIC
    ("4\n2 1 2 1\n3 4 3 4\n0 0 0 0\n0 0 0 0\n",
     ["observable", "invariant", "MOSAIC", "--invariant", "v_minus1"]),
    # a scale so small that the box's chart coordinates overflow the embedding
    (None, _EVOLVE + ["--initial", "milnor:2,3", "--scale", "1e-160"]),
    (None, ["evolve", "track"] + _EVOLVE[2:] + ["--initial", "milnor:2,3", "--scale", "1e-160"]),
    (None, ["field", "eval", "--field", "rudolph_F:1", "--z", "0", "--w", "1"]),
    (None, _EVOLVE[:-1] + ["-1", "--initial", "gaussian"]),
    # int() reads each of these; the formats take ASCII digits only
    (_RESPELLED_TREFOILS["signed"][0], None),
    (None, ["field", "eval", "--field", "milnor:2_0,3", "--z", "0", "--w", "1"]),
    (None, ["field", "eval", "--field", "milnor:\u0662,3", "--z", "0", "--w", "1"]),
    (None, ["field", "eval", "--field", "milnor:2,3,", "--z", "0", "--w", "1"]),
    # more finite inputs whose sampled values overflow (listed last to keep the ids above)
    (None, ["evolve", "run", "--steps", "2", "--resolution", "16", "--box", "1e308"]),
    (None, ["evolve", "track", "--steps", "2", "--resolution", "16", "--box", "1e308"]),
    (None, _EVOLVE + ["--initial", "gaussian", "--width", "1e-308"]),
    (None, _EVOLVE + ["--initial", "gaussian", "--width", "1e200"]),
    (None, _EVOLVE[:-2] + ["--box", "1e200", "--initial", "gaussian"]),
    *[(None, ["field", command, "--field", "milnor:2,3", "--resolution", "16", "--radius", "1e200"]
       + extra) for command, extra in [("extract", []), ("fiber", ["--theta", "0"]),
                                       ("verify", ["--expect", TREFOIL])]],
    # complex() and float() read these; number values take ASCII text without '_'
    (None, ["field", "eval", "--field", "unknot", "--z", "1_0", "--w", "1"]),
    (None, ["field", "eval", "--field", "unknot", "--z", "1", "--w", "\u0665"]),
    (None, _EVOLVE + ["--initial", "gaussian", "--omega", "1_0,1,1"]),
    # finite samples whose face solve in the march overflows
    (None, ["field", "extract", "--field", "milnor:2,3", "--resolution", "16", "--radius", "1e100"]),
    (None, ["field", "verify", "--field", "milnor:2,3", "--resolution", "16", "--radius", "1e100",
            "--expect", TREFOIL]),
])
def test_malformed_input_is_one_error_line(tmp_path, capsys, recwarn, mosaic_text, argv):
    if mosaic_text is not None:
        path = tmp_path / "bad.mosaic"
        path.write_text(mosaic_text)
        argv = [str(path) if a == "MOSAIC" else a for a in argv or ["mosaic", "show", "MOSAIC"]]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


# Each number flag, after the start of an argv that reads it.
_GAUSSIAN_RUN = ["evolve", "run", "--initial", "gaussian", "--resolution", "16"]
_INT_FLAGS = [
    ("--budget", ["mosaic", "orbit", TREFOIL]),
    ("--threads", ["mosaic", "show", TREFOIL]),
    ("--resolution", ["field", "extract", "--field", "unknot"]),
    ("--resolution", _GAUSSIAN_RUN[:4]),
    ("--steps", _GAUSSIAN_RUN),
    ("--snapshot-every", _GAUSSIAN_RUN),
]
_FLOAT_FLAGS = [
    ("--extent", ["field", "extract", "--field", "unknot"]),
    ("--radius", ["field", "extract", "--field", "unknot"]),
    ("--theta", ["field", "fiber", "--field", "unknot"]),
    ("--band", ["field", "fiber", "--field", "unknot", "--theta", "0"]),
    *[(flag, _GAUSSIAN_RUN) for flag in ("--box", "--dt", "--width", "--scale")],
    *[(flag, ["evolve", "track", "--resolution", "16"]) for flag in ("--min-amp", "--roi")],
]


@pytest.mark.parametrize("kind,flag,start,value", [
    pytest.param(kind, flag, start, value, id=f"{start[0]} {start[1]} {flag} {value}")
    for kind, flags, values in [("int", _INT_FLAGS, ["1_6", "\u0661\u0666", "\uff11\uff16", "+16"]),
                                ("float", _FLOAT_FLAGS, ["0_5", "\u0660.\u0665"])]
    for flag, start in flags for value in values
])
def test_respelled_number_flags_are_usage_errors(capsys, kind, flag, start, value):
    # int() or float() reads each value; number flags take ASCII text without '_'
    code, out, err = outcome_of(capsys, start + [flag, value])
    assert (code, out) == (2, "")
    assert err.endswith(f"error: argument {flag}: invalid {kind} value: {value!r}\n")


def test_number_spellings_that_stay_accepted(capsys):
    assert cli._parse_args(["field", "extract", "--field", "unknot",
                            "--resolution", "016"]).resolution == 16
    assert cli._parse_args(["evolve", "run", "--width", "2.5e-1"]).width == 0.25
    code, out, err = outcome_of(capsys, ["mosaic", "orbit", TREFOIL, "--budget", "-5"])
    assert (code, out) == (1, "") and "must be at least" in err
    code, out, err = outcome_of(capsys, ["evolve", "track", "--resolution", "16", "--box", "8",
                                         "--steps", "1", "--min-amp=-1e3"])
    assert (code, out) == (1, "")
    assert err == "error: min_amp must be finite and nonnegative, got -1000.0\n"
    code, out, err = outcome_of(capsys, ["field", "eval", "--field", "unknot",
                                         "--z", "-0.2-0.7i", "--w", "1"])
    assert (code, err) == (0, "") and out.startswith("unknot(-0.2 - 0.7i, 1 + 0i)")


# Every command that reads a mosaic file, at MOSAIC.
_MOSAIC_READERS = pytest.mark.parametrize("argv", [
    ["mosaic", "validate", "MOSAIC"],
    ["mosaic", "show", "MOSAIC"],
    ["mosaic", "orbit", "MOSAIC"],
    ["mosaic", "same-orbit", TREFOIL, "MOSAIC"],
    ["mosaic", "jones", "MOSAIC"],
    ["observable", "chi", "MOSAIC"],
    ["observable", "invariant", "MOSAIC", "--invariant", "components"],
    ["observable", "invariant", "MOSAIC", "--invariant", "v_minus1"],
    ["wirtinger", "MOSAIC"],
    ["field", "verify", "--field", "unknot", "--resolution", "16", "--expect", "MOSAIC"],
], ids=["validate", "show", "orbit", "same-orbit", "jones", "chi", "components", "v_minus1",
        "wirtinger", "field-verify"])


@_MOSAIC_READERS
def test_undecodable_input_is_one_error_line(tmp_path, capsys, argv):
    path = tmp_path / "bad.mosaic"
    path.write_bytes(b"\xff\xfe")
    code, out, err = run_cli(capsys, *[str(path) if a == "MOSAIC" else a for a in argv])
    assert code == 1 and out == ""
    assert err.startswith(f"error: cannot read {path}: ") and len(err.splitlines()) == 1


@_MOSAIC_READERS
@pytest.mark.parametrize("spelling", sorted(_RESPELLED_TREFOILS))
def test_respelled_mosaic_is_one_error_line(tmp_path, capsys, argv, spelling):
    text, message = _RESPELLED_TREFOILS[spelling]
    path = tmp_path / "bad.mosaic"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, *[str(path) if a == "MOSAIC" else a for a in argv])
    assert code == 1 and out == ""
    assert err.startswith(f"error: {message}") and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["mosaic", "show", TREFOIL],
    ["field", "fiber", "--field", "milnor:2,3", "--theta", "0.5", "--resolution", "32"],
], ids=["mosaic-show", "field-fiber"])
def test_closed_stdout_is_one_error_line(argv):
    # the read end of the child's stdout pipe is closed before it writes
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "knotfield.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE, text=True,
                              env=CHILD_ENV)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == "error: cannot write to stdout: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("command", ["run", "track"])
def test_tiny_scale_inside_the_chart_runs(capsys, recwarn, command):
    code, out, err = run_cli(capsys, "evolve", command, *_EVOLVE[2:], "--initial", "milnor:2,3",
                             "--scale", "1e-150")
    assert code == 0 and out and err == ""
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_open_chain_error_prints_plain_floats(capsys):
    code, out, err = run_cli(capsys, "field", "extract", "--field", "rudolph_F",
                             "--resolution", "24")
    assert code == 1 and out == ""
    assert err.startswith("error: 2 dangling nodal segment endpoints") and len(err.splitlines()) == 1
    assert "np.float64" not in err and "(-1.459297, -2.900959, 0.898168)" in err


def test_unwritable_manifest_is_one_error_line(capsys):
    # stdout is already printed when the manifest write fails
    _, shown, _ = run_cli(capsys, "mosaic", "show", TREFOIL)
    code, out, err = run_cli(capsys, "mosaic", "show", TREFOIL, "--manifest", TREFOIL + "/m.json")
    assert code == 1
    assert out == shown
    assert err.startswith("error: cannot write ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["mosaic", "orbit"],
    ["observable", "chi"],
    ["observable", "invariant"],
    ["observable", "invariant", "--invariant", "components"],
])
def test_orbit_label_encodes_once(tmp_path, capsys, monkeypatch, argv):
    circle = mosaic.Mosaic(4, (2, 1, 0, 0, 3, 4) + (0,) * 10)
    path = tmp_path / "circle4.mosaic"
    path.write_text(mosaic.encode(circle))
    real, calls = mosaic.encode, []

    def counted(m):
        calls.append(m)
        return real(m)

    for name, mod in list(sys.modules.items()):
        if name == "knotfield" or name.startswith("knotfield."):
            for attr, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(mod, attr, counted)
    code, out, _ = run_cli(capsys, *argv[:2], str(path), *argv[2:])
    assert code == 0 and out
    assert len(calls) <= 1


def test_same_orbit_self(capsys):
    code, out, _ = run_cli(capsys, "mosaic", "same-orbit", TREFOIL, TREFOIL)
    assert code == 0
    assert out.startswith("same orbit: yes")


@pytest.mark.parametrize("invalid_first", [True, False])
def test_same_orbit_rejects_either_invalid_mosaic(tmp_path, capsys, invalid_first):
    bad = tmp_path / "bad.mosaic"
    bad.write_text("4\n5 0 0 0\n0 0 0 0\n0 0 0 0\n0 0 0 0\n")
    files = [str(bad), TREFOIL] if invalid_first else [TREFOIL, str(bad)]
    code, out, err = run_cli(capsys, "mosaic", "same-orbit", *files)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "suitably-connected" in err


def test_observable_invariant(capsys):
    code, out, _ = run_cli(capsys, "observable", "invariant", TREFOIL,
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["eigenvalue"] == pytest.approx(-3.0)


def test_v_minus1_brackets_each_distinct_diagram_once(tmp_path, capsys, monkeypatch):
    circle = mosaic.Mosaic(4, (0,) * 10 + (2, 1, 0, 0, 3, 4))
    path = tmp_path / "circle.mosaic"
    path.write_text(mosaic.encode(circle))
    members = orbit(circle, default_table()).member_mosaics()
    codes = {to_diagram(m).pd_code() for m in members}
    bracketed = []
    real = diagram.bracket

    def counting_bracket(d, *args, **kwargs):
        bracketed.append(d)
        return real(d, *args, **kwargs)

    monkeypatch.setattr(diagram, "bracket", counting_bracket)
    # Each command makes a fresh observable, whose memo starts empty.
    for _ in range(2):
        bracketed.clear()
        code, out, _ = run_cli(capsys, "observable", "invariant", str(path))
        assert (code, out) == (0, "v_minus1 eigenvalue on this orbit: 1\n")
        assert len(bracketed) == len(codes)
        assert {d.pd_code() for d in bracketed} == codes


def test_invariant_observable_builds_each_label_key_once(tmp_path, capsys, monkeypatch):
    # member_rows() sorts the members once and names the orbit by row 0, so
    # reading Orbit.label afterwards sorts nothing again.
    circle = mosaic.Mosaic(4, (0,) * 10 + (2, 1, 0, 0, 3, 4))
    path = tmp_path / "circle.mosaic"
    path.write_text(mosaic.encode(circle))
    keys = []
    real = orbits.label_key
    monkeypatch.setattr(orbits, "label_key", lambda cells: keys.append(cells) or real(cells))
    code, out, _ = run_cli(capsys, "observable", "invariant", str(path),
                           "--invariant", "components")
    assert (code, out) == (0, "components eigenvalue on this orbit: 1\n")
    assert len(keys) == 1348


_TWO_CIRCLES = "4\n2 1 2 1\n3 4 3 4\n0 0 0 0\n0 0 0 0\n"  # the 766-member unlink class
_EVEN_LINK = ("error: evaluating at t < 0 needs integral t powers, which the Jones "
              "polynomial of a link with an even number of components does not have\n")


@pytest.mark.parametrize("text,invariant,want_out,want_err", [
    (_TWO_CIRCLES, "v_minus1", "", _EVEN_LINK),
    (_TWO_CIRCLES, "components", "components eigenvalue on this orbit: 2\n", ""),
    ("4\n" + "0 0 0 0\n" * 4, "v_minus1", "", "error: mosaic has zero components\n"),
    ("4\n" + "0 0 0 0\n" * 4, "components", "components eigenvalue on this orbit: 0\n", ""),
])
def test_invariant_rows_answer_as_members(tmp_path, capsys, monkeypatch, text, invariant,
                                          want_out, want_err):
    # Every orbit batched, or every orbit member by member: the same output.
    path = tmp_path / "m.mosaic"
    path.write_text(text)
    for batch_members in (0, 10 ** 9):
        monkeypatch.setattr(cli, "_BATCH_MEMBERS", batch_members)
        _, out, err = run_cli(capsys, "observable", "invariant", str(path),
                              "--invariant", invariant)
        assert (out, err) == (want_out, want_err)


@pytest.mark.parametrize("name", ["trefoil4", "fig8_5"])
@pytest.mark.parametrize("invariant", ["v_minus1", "components"])
def test_invariant_rows_json_as_members(capsys, monkeypatch, name, invariant):
    argv = ["observable", "invariant", data_path(f"{name}.mosaic"), "--invariant", invariant,
            "--format", "json"]
    outputs = []
    for batch_members in (0, 10 ** 9):
        monkeypatch.setattr(cli, "_BATCH_MEMBERS", batch_members)
        outputs.append(run_cli(capsys, *argv))
    assert outputs[0] == outputs[1] and outputs[0][0] == 0


@pytest.mark.parametrize("invariant", ["components", "v_minus1"])
def test_batched_invariant_peak_memory(tmp_path, monkeypatch, invariant):
    # The 1,348-member orbit is traced a chunk of 2^14 endpoints at a time:
    # about 1.3 MiB at the peak, orbit closure included; traced in one chunk
    # it peaks near 4 MiB.
    circle = mosaic.Mosaic(4, (0,) * 10 + (2, 1, 0, 0, 3, 4))
    path = tmp_path / "circle.mosaic"
    path.write_text(mosaic.encode(circle))
    argv = ["observable", "invariant", str(path), "--invariant", invariant, "--out",
            str(tmp_path / "out.txt")]

    def peak():
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    main(argv)  # tables and caches built outside the measurement
    assert peak() <= 2 * 2 ** 20
    monkeypatch.setattr(rows, "_TRACE_CHUNK", 1348 * 64)
    assert peak() > 2 * 2 ** 20  # the bound sees whole-orbit temporaries


def test_observable_chi(capsys):
    code, out, _ = run_cli(capsys, "observable", "chi", TREFOIL)
    assert code == 0
    assert out.splitlines()[1] == "orbit size: 2"


def test_wirtinger(capsys):
    code, out, _ = run_cli(capsys, "wirtinger", TREFOIL, "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert len(payload["generators"]) == 3
    assert payload["abelianization_rank"] == 1


def test_field_eval(capsys):
    code, out, _ = run_cli(capsys, "field", "eval", "--field", "milnor:2,3",
                           "--z", "1j", "--w", "1", "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert payload["abs"] == pytest.approx(0.0)
    assert payload["phase"] is None


def test_field_extract_csv(capsys):
    code, out, _ = run_cli(capsys, "field", "extract", "--field", "unknot",
                           "--resolution", "32")
    assert code == 0
    assert out.splitlines()[0] == "component,index,x,y,z,abs_f"


def _round12_groups(rng, n):
    """Arrays of values that round(v, 12) and its 12-decimal texts find hard."""
    sign = rng.choice([-1.0, 1.0], n)
    odd = 2 * rng.integers(-2 ** 25, 2 ** 25, n) + 1
    ties = odd / 8192.0  # v * 10^12 is a half-integer exactly for these
    near = (rng.integers(-4 * 10 ** 15, 4 * 10 ** 15, n) + 0.5) / 1e12
    return [
        rng.integers(0, 2 ** 64, n, dtype=np.uint64).view(float),  # any bits: nans, infs
        sign * np.ldexp(rng.uniform(1, 2, n), rng.integers(-1074, 1024, n)),  # every magnitude
        rng.uniform(-3, 3, n),  # chart coordinates
        rng.uniform(-4504, 4504, n),
        ties, np.nextafter(ties, np.inf), np.nextafter(ties, -np.inf),
        near, np.nextafter(near, np.inf), np.nextafter(near, -np.inf),
        np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1e-13,
                  -1e-13, 5e-13, -5e-13, 4503.999999999999, 4504.0, -4504.0, 4504.5, 1e15,
                  -1e300, 1.7976931348623157e308, np.inf, -np.inf, np.nan]),
    ]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_round12_is_round_bit_for_bit():
    rng = np.random.default_rng(12)
    for values in _round12_groups(rng, 20000):
        got = np.array(round12(values))
        want = np.array([round(v, 12) for v in values.tolist()])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    grid = rng.uniform(-3, 3, (7, 3))
    assert round12(grid) == [[round(v, 12) for v in p] for p in grid.tolist()]
    assert round12(np.zeros((0, 4))) == []


def _dumps_round12(a):
    return json.dumps([[round(v, 12) for v in row] for row in a.tolist()])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_json_rows_is_json_dumps_of_round():
    rng = np.random.default_rng(13)
    edges = [1e-4, -1e-4, 1000.0, -1000.0, 999.9999999999995, 999.9999999999994,
             -999.9999999999996, 9.999999999995e-05, 1e-4 - 5e-17, 0.0, -0.0]
    edges += np.nextafter(edges, np.inf).tolist() + np.nextafter(edges, -np.inf).tolist()
    spread = rng.uniform(-1, 1, 20000) * 10.0 ** rng.integers(-14, 5, 20000)  # every exponent
    for values in _round12_groups(rng, 6000) + [np.array(edges), spread]:
        for cols in (1, 3, 4):
            a = values[:len(values) // cols * cols].reshape(-1, cols)
            assert cli._json_rows(a) == _dumps_round12(a)
    chunk = cli._JSON_CHUNK
    for size in (chunk - 1, chunk, chunk + 1, 2 * chunk + 2, 3 * chunk - 3):
        for cols in (1, 3, 4):
            a = rng.uniform(-3, 3, (size // cols, cols))
            assert cli._json_rows(a) == _dumps_round12(a)
    for shape in ((0, 4), (0, 3), (1, 1), (2, 0)):
        assert cli._json_rows(np.zeros(shape)) == _dumps_round12(np.zeros(shape))


def test_json_rows_temporaries_stay_within_a_chunk():
    # beyond its text and the chunk texts that join into it, the encoder
    # holds one chunk's arrays whatever the array size; a fiber cloud peaks
    # lower than the nested lists of the rounded values took before json
    rng = np.random.default_rng(14)
    extra = []
    for rows in (2 * cli._JSON_CHUNK, 16 * cli._JSON_CHUNK):
        cloud = np.column_stack([rng.uniform(-3, 3, (rows, 3)), rng.uniform(0, 2, rows)])
        cli._json_rows(cloud[:10])  # the records, built once per process
        tracemalloc.start()
        text = cli._json_rows(cloud)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        extra.append(peak - 2 * sys.getsizeof(text))
        if rows == 2 * cli._JSON_CHUNK:
            tracemalloc.start()
            json.dumps(round12(cloud))
            assert peak <= tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
    assert max(extra) < 200 * cli._JSON_CHUNK


@pytest.mark.parametrize("chart", ["north", "south"])
def test_field_extract_json_coordinates_are_round(capsys, chart):
    code, out, _ = run_cli(capsys, "field", "extract", "--field", "milnor:2,3",
                           "--resolution", "48", "--chart", chart, "--format", "json")
    f, grid = parse_field_spec("milnor:2,3"), SampleGrid(chart=chart, resolution=48)
    curve = refine(extract(f, grid), f, grid)
    assert code == 0 and out == json.dumps({
        "chart": curve.chart, "n_components": curve.n_components,
        "residual": curve.residual,
        "components": [[[round(v, 12) for v in p] for p in c.tolist()]
                       for c in curve.components]}) + "\n"


def test_field_verify(capsys):
    code, out, _ = run_cli(capsys, "field", "verify", "--field", "milnor:2,3",
                           "--expect", TREFOIL, "--resolution", "48",
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["match"] is True


@pytest.mark.parametrize("resolution", ["48", "64", "96"])
def test_field_verify_mirror_flag_follows_the_chart(capsys, resolution):
    # the south chart's stereographic projection reverses orientation, so the
    # milnor:2,3 trefoil reads as trefoil4 in the north chart and as its mirror
    # in the south chart
    for chart, mirrored in (("north", False), ("south", True)):
        code, out, _ = run_cli(capsys, "field", "verify", "--field", "milnor:2,3",
                               "--expect", TREFOIL, "--resolution", resolution,
                               "--chart", chart, "--format", "json")
        report = json.loads(out)
        assert code == 0 and report["match"] is True
        assert report["mirrored"] is mirrored


def test_field_commands_at_odd_resolution(capsys, tmp_path):
    # an odd lattice holds the x, y, z = 0 planes; the retry lattices move off them
    circle = tmp_path / "circle.mosaic"
    circle.write_text(mosaic.encode(mosaic.Mosaic(2, (2, 1, 3, 4))))
    code, out, _ = run_cli(capsys, "field", "verify", "--field", "unknot",
                           "--expect", str(circle), "--resolution", "49", "--format", "json")
    assert code == 0 and json.loads(out)["match"] is True
    code, out, _ = run_cli(capsys, "field", "extract", "--field", "milnor:2,3",
                           "--resolution", "49", "--format", "json")
    assert code == 0 and json.loads(out)["n_components"] == 1


def test_field_verify_makes_no_scalar_evaluations(capsys, monkeypatch):
    # verify projects the piecewise-linear zero set, so it samples the field
    # on the grid only and never point by point as Newton refinement does
    calls = {"scalar": 0, "array": 0}
    parse = fields.parse_field_spec

    def counting_spec(spec):
        f = parse(spec)

        def evaluate(z, w):
            calls["scalar" if np.ndim(z) == 0 else "array"] += 1
            return f.evaluator(z, w)
        return dataclasses.replace(f, evaluator=evaluate)

    monkeypatch.setattr(fields, "parse_field_spec", counting_spec)
    code, out, _ = run_cli(capsys, "field", "verify", "--field", "milnor:2,3",
                           "--expect", TREFOIL, "--resolution", "48",
                           "--format", "json")
    assert code == 0 and json.loads(out)["match"] is True
    assert calls["array"] > 0
    assert calls["scalar"] == 0


def test_field_fiber(capsys):
    code, out, _ = run_cli(capsys, "field", "fiber", "--field", "unknot",
                           "--theta", "0.0", "--resolution", "32")
    assert code == 0
    assert out.splitlines()[0] == "x,y,z,abs_f"
    assert len(out.splitlines()) > 1


def test_validate_json_lists_the_bad_edges(tmp_path, capsys):
    bad = tmp_path / "bad.mosaic"
    bad.write_text("2\n9 0\n0 0\n")  # crossing tile on a 2x2 boundary
    code, out, _ = run_cli(capsys, "mosaic", "validate", str(bad), "--format", "json")
    assert code == 1
    assert json.loads(out) == {"valid": False, "bad_edges": [
        ["h", 0, 0, "connection point on outer boundary"],
        ["h", 1, 0, "mismatched interior edge"],
        ["v", 0, 0, "connection point on outer boundary"],
        ["v", 0, 1, "mismatched interior edge"]]}


def test_show_json_is_the_mosaic(capsys):
    code, out, _ = run_cli(capsys, "mosaic", "show", TREFOIL, "--format", "json")
    assert code == 0
    m = mosaic.load(open(TREFOIL).read())
    assert json.loads(out) == {"n": 4, "cells": list(m.cells)}
    assert mosaic.from_json(out) == m


def test_orbit_members_text(tmp_path, capsys):
    # the 3x3 circle's 19 members, in the order and with the representative
    # of the JSON output, against a plain BFS closure
    path = tmp_path / "circle3.mosaic"
    m = mosaic.Mosaic(3, (2, 1, 0, 3, 4, 0, 0, 0, 0))
    path.write_text(mosaic.encode(m))
    code, out, _ = run_cli(capsys, "mosaic", "orbit", str(path), "--members")
    assert code == 0
    _, as_json, _ = run_cli(capsys, "mosaic", "orbit", str(path), "--members",
                            "--format", "json")
    payload = json.loads(as_json)
    members = sorted(mosaic.encode(mosaic.Mosaic(3, tuple(cells)))
                     for cells in oracle_orbit(m, default_table(), 1000))
    assert payload["size"] == 19 and payload["members"] == members
    assert out == "\n".join([
        "orbit size: 19", "representative:", payload["representative"].rstrip("\n"),
        "members:", *members]) + "\n"


def test_field_extract_obj(capsys):
    code, out, _ = run_cli(capsys, "field", "extract", "--field", "milnor:2,3",
                           "--resolution", "32", "--obj")
    assert code == 0
    grid = SampleGrid(resolution=32)
    f = parse_field_spec("milnor:2,3")
    curve = refine(extract(f, grid), f, grid)
    assert curve.n_components == 1 and curve.is_closed(0)
    k = len(curve.components[0]) - 1
    lines = out.splitlines()
    assert lines == [f"v {x:.12g} {y:.12g} {z:.12g}" for x, y, z in curve.components[0][:-1]] + [
        "l " + " ".join(str(i) for i in range(1, k + 1)) + " 1"]


def test_field_fiber_json(capsys):
    code, out, _ = run_cli(capsys, "field", "fiber", "--field", "unknot", "--theta", "0.5",
                           "--resolution", "16", "--format", "json")
    assert code == 0
    cloud = extraction.sample_fiber(parse_field_spec("unknot"), 0.5, SampleGrid(resolution=16))
    assert len(cloud) > 0
    assert json.loads(out) == {"theta": 0.5, "n_points": len(cloud),
                               "points": [[round(v, 12) for v in row] for row in cloud.tolist()]}


def test_evolve_run_json(capsys):
    code, out, _ = run_cli(capsys, "evolve", "run", "--resolution", "32",
                           "--box", "8", "--steps", "10",
                           "--initial", "gaussian", "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert payload["norm_drift"] < 1e-10
    assert payload["final_time"] == pytest.approx(0.01)


def test_evolve_run_takes_each_norm_once(capsys, monkeypatch):
    # One norm for the initial state's norm0 and one for the final state,
    # which the drift reuses.
    calls = []
    real = evolution._l2
    monkeypatch.setattr(evolution, "_l2", lambda values: calls.append(1) or real(values))
    code, out, _ = run_cli(capsys, "evolve", "run", "--resolution", "16", "--box", "8",
                           "--steps", "2", "--initial", "gaussian", "--format", "json")
    assert code == 0
    assert len(calls) == 2
    got = json.loads(out)
    assert got["norm_drift"] == abs(got["final_norm"] - got["initial_norm"]) / got["initial_norm"]


def test_evolve_track_csv(capsys, tmp_path):
    snaps = tmp_path / "snaps"
    code, out, _ = run_cli(capsys, "evolve", "track", "--resolution", "64",
                           "--box", "16", "--steps", "4", "--dt", "5e-4",
                           "--snapshot-every", "2",
                           "--snapshots-dir", str(snaps))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "time,n_components,displacement,error"
    assert all(",1," in ln for ln in lines[1:4])
    assert len(list(snaps.glob("*.npy"))) == 3


def test_evolve_track_json_counts_closed_components(capsys):
    # the benchmark's track command; its "creation 1 -> 13" event is open stubs
    code, out, _ = run_cli(capsys, "evolve", "track", "--initial", "milnor:2,3",
                           "--steps", "20", "--snapshot-every", "5",
                           "--resolution", "64", "--format", "json")
    assert code == 0
    snaps = json.loads(out)["snapshots"]
    assert len(snaps) == 5
    assert all(s["n_closed"] == 1 for s in snaps)
    assert all(s["n_closed"] + s["n_open"] == s["n_components"] for s in snaps)


@pytest.mark.parametrize("command", ["run", "track"])
def test_snapshots_dir_holds_each_kept_state(tmp_path, capsys, command):
    # the files are np.save of run()'s list, written from the stream as each
    # state arrives, by evolve run and evolve track alike
    snaps = tmp_path / "snaps"
    code, _, _ = run_cli(capsys, "evolve", command, "--resolution", "32", "--box", "8",
                         "--steps", "7", "--snapshot-every", "3",
                         "--snapshots-dir", str(snaps))
    assert code == 0
    cfg = evolution.EvolutionConfig(box=8.0, resolution=32, steps=7)
    psi = evolution.initial_knot_state(parse_field_spec("milnor:2,3"), cfg)
    want = {}
    for i, st in enumerate(evolution.run(psi, cfg, snapshot_every=3)):
        buf = io.BytesIO()
        np.save(buf, st.values)
        want[f"snapshot_{i:04d}.npy"] = buf.getvalue()
    assert sorted(want) == ["snapshot_0000.npy", "snapshot_0001.npy",
                            "snapshot_0002.npy", "snapshot_0003.npy"]
    assert {p.name: p.read_bytes() for p in snaps.iterdir()} == want


@pytest.mark.parametrize("command", ["run", "track"])
def test_failed_track_leaves_the_snapshots_before_the_failure(tmp_path, capsys, command):
    # the initial state is written before the first propagation overflows
    snaps = tmp_path / "snaps"
    code, out, err = run_cli(capsys, "evolve", command, "--resolution", "16", "--box", "8",
                             "--steps", "2", "--initial", "gaussian", "--dt", "1e308",
                             "--snapshots-dir", str(snaps))
    assert (code, out) == (1, "")
    assert err.startswith("error: numeric overflow") and err.count("\n") == 1
    assert [p.name for p in snaps.iterdir()] == ["snapshot_0000.npy"]


@pytest.mark.parametrize("command", ["run", "track"])
def test_track_peak_memory_does_not_grow_with_snapshots(tmp_path, command):
    # A run or a track holds the current and the next state, not the
    # history: 4 and 40 snapshots of 32^3 peak within one 512 KiB state of
    # each other.  Holding all of them adds 36 states, 18 MiB.
    def peak(snapshots):
        argv = ["evolve", command, "--resolution", "32", "--steps", str(snapshots - 1),
                "--snapshot-every", "1", "--out", str(tmp_path / "out.txt")]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(4)  # imports, tables and caches built outside the measurement
    assert abs(peak(40) - peak(4)) < 16 * 32 ** 3


def test_out_and_manifest(tmp_path, capsys):
    out_file = tmp_path / "jones.txt"
    code, out, _ = run_cli(capsys, "mosaic", "jones", TREFOIL,
                           "--out", str(out_file))
    assert code == 0
    assert out == ""
    assert "s^-8" in out_file.read_text()
    manifest = json.loads((tmp_path / "jones.txt.manifest.json").read_text())
    assert manifest["tool"] == "knotfield"
    assert manifest["inputs"] == [TREFOIL]
    assert manifest["exit_code"] == 0


def test_out_to_a_device_gets_no_sibling_manifest(tmp_path, capsys, monkeypatch):
    # the paths passed to _write are recorded; nothing is written under /dev
    written, real = [], cli._write

    def write(path, text):
        written.append(path)
        if path.startswith(str(tmp_path)):
            real(path, text)

    monkeypatch.setattr(cli, "_write", write)
    assert main(["mosaic", "jones", TREFOIL, "--out", os.devnull]) == 0
    assert written == [os.devnull]
    man = str(tmp_path / "run.json")
    written.clear()
    assert main(["mosaic", "jones", TREFOIL, "--out", os.devnull, "--manifest", man]) == 0
    assert written == [os.devnull, man]
    assert json.loads((tmp_path / "run.json").read_text())["output"] == os.devnull
    out = str(tmp_path / "jones.txt")
    written.clear()
    assert main(["mosaic", "jones", TREFOIL, "--out", out]) == 0
    assert written == [out, out + ".manifest.json"]
    assert capsys.readouterr().out == ""


def test_explicit_manifest_path(tmp_path, capsys):
    man = tmp_path / "run.json"
    code, _, _ = run_cli(capsys, "mosaic", "jones", TREFOIL,
                         "--manifest", str(man))
    assert code == 0
    assert json.loads(man.read_text())["subcommand"] == "mosaic jones"


# A fresh process runs each command and then lists the modules it imported
# from these; the commands that read one mosaic need none of them, and the
# field and evolve commands need numpy but not numpy.ma.
_STARTUP_SCRIPT = """
import contextlib, io, sys
from knotfield import cli
for argv in {commands!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
print(sorted(name for name in {modules!r} if name in sys.modules))
"""


def test_mosaic_commands_start_without_numpy():
    commands = [["mosaic", "validate", TREFOIL], ["mosaic", "show", TREFOIL],
                ["mosaic", "jones", TREFOIL], ["wirtinger", TREFOIL]]
    modules = ["numpy", "knotfield.orbits", "knotfield.extraction", "knotfield.evolution"]
    proc = subprocess.run(
        [sys.executable, "-c", _STARTUP_SCRIPT.format(commands=commands, modules=modules)],
        capture_output=True, text=True, env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_field_commands_start_without_numpy_ma():
    # np.unique without return flags hashes, and its hash path imports numpy.ma
    commands = [["field", "verify", "--field", "milnor:2,3", "--expect", TREFOIL,
                 "--resolution", "48"],
                ["field", "extract", "--field", "milnor:2,3", "--resolution", "32"],
                ["evolve", "track", "--resolution", "16", "--box", "8", "--steps", "2",
                 "--snapshot-every", "1"]]
    modules = ["numpy", "numpy.ma"]
    proc = subprocess.run(
        [sys.executable, "-c", _STARTUP_SCRIPT.format(commands=commands, modules=modules)],
        capture_output=True, text=True, env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['numpy']\n"


def test_thread_independence(tmp_path):
    # byte-identical outputs for --threads 1 and --threads 8
    outs = []
    for t in ("1", "8"):
        path = tmp_path / f"orbit_{t}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "knotfield.cli", "mosaic", "orbit", TREFOIL,
             "--members", "--format", "json", "--threads", t,
             "--out", str(path)],
            capture_output=True, text=True, env=CHILD_ENV)
        assert proc.returncode == 0, proc.stderr
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_blas_thread_count_does_not_change_outputs():
    # README: outputs are byte-identical at OPENBLAS_NUM_THREADS 1 and 2
    commands = [["mosaic", "orbit", data_path("fig8_5.mosaic"), "--members"],
                ["field", "extract", "--field", "milnor:2,5", "--resolution", "48"],
                ["field", "verify", "--field", "milnor:2,3", "--expect", TREFOIL,
                 "--resolution", "48"],
                ["evolve", "run", "--hamiltonian", "harmonic", "--resolution", "32"],
                ["evolve", "track", "--resolution", "32"]]
    for argv in commands:
        outs = []
        for n in ("1", "2"):
            env = {**CHILD_ENV, "OPENBLAS_NUM_THREADS": n, "OMP_NUM_THREADS": n,
                   "MKL_NUM_THREADS": n}
            proc = subprocess.run([sys.executable, "-m", "knotfield.cli", *argv],
                                  capture_output=True, env=env)
            assert proc.returncode == 0, proc.stderr
            outs.append((proc.stdout, proc.stderr))
        assert outs[0] == outs[1], argv


def outcome_of(capsys, argv):
    """(exit code, stdout, stderr) of main(argv), a SystemExit included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_cached_parser_keeps_no_state_between_calls(tmp_path, capsys):
    # the parser is built once per process; calls interleaved on it must
    # print what each prints on a parser of its own
    out_file = str(tmp_path / "jones.txt")
    calls = [
        ["mosaic", "jones", TREFOIL, "--format", "json"],
        ["mosaic", "jones", TREFOIL],
        ["mosaic", "jones", TREFOIL, "--out", out_file],
        ["mosaic", "jones", TREFOIL],
        ["observable", "invariant", TREFOIL, "--invariant", "components"],
        ["observable", "invariant", TREFOIL],
        ["mosaic"],
        ["mosaic", "jones"],
        ["mosaic", "jones", TREFOIL, "--format", "xml"],
        ["--help"],
        ["field", "verify", "--help"],
        ["mosaic", "jones", TREFOIL],
    ]
    cli._parser.cache_clear()
    shared = [outcome_of(capsys, argv) for argv in calls]
    assert cli._parser.cache_info().misses == 1
    own = []
    for argv in calls:
        cli._parser.cache_clear()
        own.append(outcome_of(capsys, argv))
    assert shared == own
    json.loads(shared[0][1])
    assert shared[1] == shared[3] == shared[11] and not shared[1][1].startswith("{")
    assert shared[2] == (0, "", "")
    assert [o[0] for o in shared[6:11]] == [2, 2, 2, 0, 0]


_GRID = ["--field", "unknot", "--resolution", "16"]
_SMALL_EVOLVE = ["--resolution", "16", "--box", "8", "--steps", "2", "--initial", "gaussian"]

# Every command of build_parser(): the argv after its name that runs it,
# and one that lacks what it requires (None where it requires nothing).
_LEAVES = {
    ("mosaic", "validate"): ([TREFOIL], []),
    ("mosaic", "show"): ([TREFOIL], []),
    ("mosaic", "orbit"): ([TREFOIL, "--members"], ["--members"]),
    ("mosaic", "same-orbit"): ([TREFOIL, TREFOIL], [TREFOIL]),
    ("mosaic", "jones"): ([TREFOIL], []),
    ("observable", "chi"): ([TREFOIL], []),
    ("observable", "invariant"): ([TREFOIL, "--invariant", "components"], []),
    ("wirtinger",): ([TREFOIL], []),
    ("field", "eval"): (["--field", "unknot", "--z", "0.5", "--w", "1"], ["--z", "0", "--w", "1"]),
    ("field", "extract"): (_GRID, ["--resolution", "16"]),
    ("field", "verify"): (["--expect", TREFOIL] + _GRID, _GRID),
    ("field", "fiber"): (["--theta", "0"] + _GRID, _GRID),
    ("evolve", "run"): (_SMALL_EVOLVE, None),
    ("evolve", "track"): (_SMALL_EVOLVE, None),
}


def _taken(path):
    """The bytes of the file at path, which is then removed; None if absent."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return None
    os.remove(path)
    return data


def _dispatched_and_full(capsys, monkeypatch, argv, written=()):
    """main(argv)'s exit code, stdout, stderr and the files it wrote, as it
    runs and then with a fresh full parser's parse_args in place of the
    command dispatch; and how often the first run fell back to parse_args."""
    parse_args = argparse.ArgumentParser.parse_args
    full = []
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args",
                        lambda self, *a: full.append(a) or parse_args(self, *a))
    dispatched = outcome_of(capsys, argv) + tuple(_taken(p) for p in written)
    falls_back = len(full)
    monkeypatch.setattr(cli, "_parse_args", lambda a: cli.build_parser().parse_args(a))
    reference = outcome_of(capsys, argv) + tuple(_taken(p) for p in written)
    monkeypatch.undo()
    return dispatched, reference, falls_back


def test_every_command_is_dispatched():
    assert set(cli._leaves(cli._parser())) == set(_LEAVES)


@pytest.mark.parametrize("command", list(_LEAVES), ids=" ".join)
def test_dispatch_answers_as_the_full_parser(tmp_path, capsys, monkeypatch, command):
    valid, missing = _LEAVES[command]
    out = str(tmp_path / "out.txt")
    cases = [  # (argv after the command, whether the full parser reads it)
        (valid + ["--format=json"], False),
        (valid + ["--form", "json", "--ou", out], False),
        (valid + ["-h"], False),
        (valid + ["--format", "xml"], False),
        (valid + ["--bogus", "1"], True),
        (valid + ["--version"], True),
    ] + ([(missing, False)] if missing is not None else [])
    for rest, full in cases:
        argv = list(command) + rest
        dispatched, reference, falls_back = _dispatched_and_full(
            capsys, monkeypatch, argv, (out, out + ".manifest.json"))
        assert dispatched == reference, argv
        assert falls_back == full, argv
        code, stdout, stderr, *_ = dispatched
        if rest[len(valid):] in (["--format=json"], ["-h"]):  # runs, or prints its own help
            assert (code, stderr) == (0, "") and stdout
        if rest[-1:] == ["-h"]:
            assert stdout.startswith(f"usage: knotfield {' '.join(command)} [-h]")
        if full:  # the top parser reports what the command's parser leaves over
            assert (code, stdout) == (2, "")
            assert stderr.startswith("usage: knotfield [-h] [--version]")
            assert stderr.splitlines()[-1] == ("knotfield: error: unrecognized arguments: "
                                               + " ".join(rest[len(valid):]))


@pytest.mark.parametrize("argv,full", [
    (["field", "eval", "--field", "unknot", "--z", "-0.2-0.7i", "--w", "1"], False),
    # argv that names no command
    ([], True), (["mosaic"], True), (["bogus"], True), (["--version"], True),
    (["-h"], True), (["mosaic", "-h"], True),
    # "--=x" is an ambiguous top-level option to the full parser, even after "--"
    (["mosaic", "jones", TREFOIL, "--=x"], True),
    (["wirtinger", "--", "--=x"], True),
], ids=repr)
def test_dispatch_answers_as_the_full_parser_on_other_argv(capsys, monkeypatch, argv, full):
    dispatched, reference, falls_back = _dispatched_and_full(capsys, monkeypatch, argv)
    assert dispatched == reference
    assert falls_back == full


_TOKENS = [TREFOIL, "--format", "json", "xml", "--form", "--format=json", "-h", "--he",
           "--version", "--ver", "--", "-", "", "--=x", "-x", "--budget", "-1", "--bud",
           "--thr", "2", "--members", "--mem", "--invariant", "components", "--z",
           "-0.2-0.7i", "--w", "--field", "unknot", "--theta", "--resolution=16",
           "--chart", "south", "--obj", "--steps", "--roi", "--min-amp", "-1e3",
           "mosaic", "jones", "wirtinger", "--help=x", "-hh", "--sn", "--s", "1_6",
           "\u0661\u0666"]


@given(st.sampled_from([list(c) for c in _LEAVES] + [[], ["mosaic"], ["bogus"]]),
       st.lists(st.sampled_from(_TOKENS), max_size=6))
@settings(max_examples=300, deadline=None)
def test_parse_args_matches_the_full_parser_on_any_tokens(command, tokens):
    argv = command + tokens

    def parsed(parse):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                result = vars(parse(argv))
            except SystemExit as exc:
                result = exc.code
        return result, out.getvalue(), err.getvalue()

    assert parsed(cli._parse_args) == parsed(cli.build_parser().parse_args)


_NO_ORBIT = [
    ["mosaic", "validate", TREFOIL],
    ["mosaic", "show", TREFOIL],
    ["mosaic", "jones", TREFOIL],
    ["wirtinger", TREFOIL],
    ["field", "eval", "--field", "unknot", "--z", "0", "--w", "1"],
    ["field", "extract"] + _GRID,
    ["field", "verify", "--expect", TREFOIL] + _GRID,
    ["field", "fiber", "--theta", "0"] + _GRID,
    _EVOLVE + ["--initial", "gaussian"],
    ["evolve", "track", "--resolution", "16", "--box", "8", "--steps", "2"],
]
_CLOSES_ORBIT = [
    ["mosaic", "orbit", TREFOIL],
    ["mosaic", "same-orbit", TREFOIL, TREFOIL],
    ["observable", "chi", TREFOIL],
    ["observable", "invariant", TREFOIL],
]


def _command(argv):
    return " ".join(argv[:1] if argv[0] == "wirtinger" else argv[:2])


@pytest.mark.parametrize("argv", _NO_ORBIT, ids=_command)
def test_budget_rejected_where_no_orbit_closes(capsys, argv):
    code, out, err = outcome_of(capsys, argv + ["--budget", "5"])
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --budget 5" in err


@pytest.mark.parametrize("argv", _CLOSES_ORBIT, ids=_command)
def test_budget_errors_where_an_orbit_closes(capsys, argv):
    # The trefoil's orbit has 2 members: a budget of 1 is exceeded, 0 is invalid.
    for budget, message in (("0", "orbit budget must be at least 1, got 0"),
                            ("1", "orbit budget of 1 members exceeded")):
        code, out, err = outcome_of(capsys, argv + ["--budget", budget])
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert message in err


@pytest.mark.parametrize("argv", [
    ["field", "extract", "--field", "unknot", "--resolution", "1000000"],
    ["evolve", "run", "--resolution", "1048576"],
])
def test_unaddressable_lattice_rejected(capsys, argv):
    # n^3 * 16 bytes above sys.maxsize: refused before any array is made
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "is too large" in err


def test_memory_error_is_one_error_line(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 64. GiB")

    monkeypatch.setattr(extraction, "lattice_slabs", exhausted)
    code, out, err = run_cli(capsys, "field", "extract", "--field", "unknot", "--resolution", "16")
    assert code == 1
    assert out == ""
    assert err == "error: out of memory: Unable to allocate 64. GiB\n"


_EVAL = ["field", "eval", "--field", "unknot"]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("z", ["-0.2-0.7i", "-1e5", "-2j", "0.5"])
def test_field_eval_value_after_a_space_reads_as_after_equals(capsys, z, fmt):
    # argparse reads "-0.2-0.7i" after "--z " as an option unless it is joined
    attached = outcome_of(capsys, _EVAL + [f"--z={z}", "--w", "1", "--format", fmt])
    spaced = outcome_of(capsys, _EVAL + ["--z", z, "--w", "1", "--format", fmt])
    assert spaced == attached
    assert spaced[0] == 0 and spaced[2] == ""


def test_field_eval_text_signs_the_imaginary_part(capsys):
    # inputs and value in one notation
    _, out, _ = run_cli(capsys, *_EVAL, "--z", "-0.2-0.7i", "--w", "1")
    assert out == "unknot(-0.2 - 0.7i, 1 + 0i) = -0.2 - 0.7i (phase 4.43408932138)\n"
    _, out, _ = run_cli(capsys, *_EVAL, "--z", "0.5+0.25i", "--w", "1")
    assert out == "unknot(0.5 + 0.25i, 1 + 0i) = 0.5 + 0.25i (phase 0.463647609001)\n"


def test_field_eval_non_finite_error_signs_the_imaginary_part(capsys):
    # the error prints its inputs as the text output does
    code, out, err = run_cli(capsys, "field", "eval", "--field", "milnor:2,3",
                             "--z", "1e200", "--w", "1")
    assert (code, out) == (1, "")
    assert err == "error: milnor(2,3) is not finite at (1e+200 + 0i, 1 + 0i)\n"


@pytest.mark.parametrize("z,code,err", [
    ("inf", 1, "error: complex number must be finite, got 'inf'\n"),
    ("nan", 1, "error: complex number must be finite, got 'nan'\n"),
    ("-inf", 1, "error: complex number must be finite, got '-inf'\n"),
    ("1e400", 1, "error: complex number must be finite, got '1e400'\n"),
    ("-0.2-0.7i", 0, ""),
])
def test_field_eval_reads_inf_and_nan_as_numbers(capsys, z, code, err):
    # only a trailing i is the imaginary unit, so inf and nan parse and are
    # refused as non-finite; a value after a space reads as after '='
    for argv in (["--z", z], [f"--z={z}"]):
        got, out, got_err = outcome_of(capsys, _EVAL + argv + ["--w", "1"])
        assert (got, got_err) == (code, err)
        assert (out != "") == (code == 0)


@pytest.mark.parametrize("args,code,message", [
    (["--z", "--w", "1"], 2, "argument --z: expected one argument"),
    (["--w", "1", "--z"], 2, "argument --z: expected one argument"),
    (["--z", "-abc", "--w", "1"], 2, "argument --z: expected one argument"),
    (["--z", "1", "--w", "-1-i-"], 2, "argument --w: expected one argument"),
    (["--z", "abc", "--w", "1"], 1, "error: cannot parse complex number 'abc'"),
])
def test_field_eval_bad_values_stay_errors(capsys, args, code, message):
    got, out, err = outcome_of(capsys, _EVAL + args)
    assert (got, out) == (code, "")
    assert message in err


@pytest.mark.parametrize("argv", [
    ["mosaic", "jones"],
    ["field", "verify", "--field", "unknot", "--resolution", "16", "--expect"],
], ids=_command)
def test_crossing_cap_is_one_error_line(tmp_path, capsys, argv):
    m = crossing_mosaic(random.Random(9), 10, max_crossings=40)
    assert mosaic.validate(m).valid and mosaic.count_crossings(m) == 28
    path = tmp_path / "crossings28.mosaic"
    path.write_text(mosaic.encode(m))
    code, out, err = outcome_of(capsys, argv + [str(path)])
    assert (code, out) == (1, "")
    assert err == "error: diagram has 28 crossings, above the bracket's crossing cap of 24\n"
