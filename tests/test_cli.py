"""End-to-end CLI checks through main(), without spawning subprocesses
except where thread independence is the point."""

import json
import subprocess
import sys

import pytest

from conftest import data_path

from knotfield.cli import main

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


def test_same_orbit_self(capsys):
    code, out, _ = run_cli(capsys, "mosaic", "same-orbit", TREFOIL, TREFOIL)
    assert code == 0
    assert out.startswith("same orbit: yes")


def test_observable_invariant(capsys):
    code, out, _ = run_cli(capsys, "observable", "invariant", TREFOIL,
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["eigenvalue"] == pytest.approx(-3.0)


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


def test_field_verify(capsys):
    code, out, _ = run_cli(capsys, "field", "verify", "--field", "milnor:2,3",
                           "--expect", TREFOIL, "--resolution", "48",
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["match"] is True


def test_field_fiber(capsys):
    code, out, _ = run_cli(capsys, "field", "fiber", "--field", "unknot",
                           "--theta", "0.0", "--resolution", "32")
    assert code == 0
    assert out.splitlines()[0] == "x,y,z,abs_f"
    assert len(out.splitlines()) > 1


def test_evolve_run_json(capsys):
    code, out, _ = run_cli(capsys, "evolve", "run", "--resolution", "32",
                           "--box", "8", "--steps", "10",
                           "--initial", "gaussian", "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert payload["norm_drift"] < 1e-10
    assert payload["final_time"] == pytest.approx(0.01)


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


def test_explicit_manifest_path(tmp_path, capsys):
    man = tmp_path / "run.json"
    code, _, _ = run_cli(capsys, "mosaic", "jones", TREFOIL,
                         "--manifest", str(man))
    assert code == 0
    assert json.loads(man.read_text())["subcommand"] == "mosaic jones"


def test_thread_independence(tmp_path):
    # byte-identical outputs for --threads 1 and --threads 8
    outs = []
    for t in ("1", "8"):
        path = tmp_path / f"orbit_{t}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "knotfield.cli", "mosaic", "orbit", TREFOIL,
             "--members", "--format", "json", "--threads", t,
             "--out", str(path)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]
