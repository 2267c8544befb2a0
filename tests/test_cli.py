import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from ncmotives import cli
from ncmotives.cli import main

REPO = Path(__file__).resolve().parent.parent
ALG = REPO / "demos" / "algebras"
CAT = REPO / "demos" / "categories"


def run_cli(args):
    """Run in-process, capturing stdout/stderr and status."""
    import io
    from contextlib import redirect_stdout, redirect_stderr
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = main(args)
    return status, out.getvalue(), err.getvalue()


def test_describe_quiver():
    status, out, _ = run_cli(["describe", "--input", str(ALG / "square.json")])
    assert status == 0
    assert "dimension: 9" in out
    assert "global dimension: 2" in out


def test_hh_structured_output_is_json():
    status, out, _ = run_cli(["hh", "--input", str(ALG / "dual_numbers.json"),
                              "--max-degree", "5", "--format", "structured"])
    assert status == 0
    payload = json.loads(out)
    assert payload["command"] == "hh"
    assert payload["HH dimensions"]["rows"][0] == ["0", "2"]


def test_hh_oracle_flag():
    status, out, _ = run_cli(["hh", "--input", str(ALG / "a2.json"),
                              "--max-degree", "4", "--oracle"])
    assert status == 0
    assert "agrees" in out


def test_hp_window_stable_caveat():
    status, out, _ = run_cli(["hp", "--input",
                              str(ALG / "dual_numbers.json"),
                              "--max-degree", "6"])
    assert status == 0
    assert "WINDOW-STABLE" in out
    assert "caveat" in out


def test_hp_certified_path():
    status, out, _ = run_cli(["hp", "--input", str(ALG / "a2.json"),
                              "--max-degree", "5"])
    assert status == 0
    assert "CERTIFIED" in out
    assert "even dimension: 2" in out


def test_hp_square_answers_at_degree_five():
    """The relative mixed complex of `square` has 4 chains at any degree;
    over Q.1 it had 337041 at degree 5, over the default guard."""
    status, out, err = run_cli(["hp", "--input", str(ALG / "square.json"),
                                "--max-degree", "5"])
    assert status == 0, err
    assert "even dimension: 4" in out and "odd dimension: 0" in out
    assert "certificate: CERTIFIED" in out


def test_cli_sweep_smoke():
    """tools/cli_sweep.py on one input: one `argv | exit | sha256 | sha256`
    line per run, the same on a second run."""
    runs = [subprocess.run([sys.executable, str(REPO / "tools" / "cli_sweep.py"),
                            str(ALG / "q.json")], capture_output=True,
                           text=True, cwd=str(REPO)) for _ in range(2)]
    for run in runs:
        assert run.returncode == 0 and run.stderr == ""
    lines = runs[0].stdout.splitlines()
    assert len(lines) == 10 * 3 * 2      # commands x degrees x formats
    pattern = re.compile(r"^\S+ --input demos/algebras/q\.json( \S+)* "
                         r"\| [0-5] \| [0-9a-f]{64} \| [0-9a-f]{64}$")
    assert all(pattern.match(line) for line in lines), lines[0]
    assert lines[0].startswith("describe --input demos/algebras/q.json "
                               "--max-degree 4 --format table | 0 | ")
    assert runs[1].stdout == runs[0].stdout


def test_schur_sweep():
    status, out, _ = run_cli(["schur", "--dims", "1,1", "--max-weight", "4"])
    assert status == 0
    assert "(2, 2)" in out


UNKNOWN_ARROW = {"kind": "quiver", "vertices": ["1", "2"],
                 "arrows": [["a", "1", "2"]], "truncation": 2,
                 "relations": [[["1", ["a", "z"]]]]}

UNKNOWN_LABEL = {"kind": "structure_constants", "basis": ["x"],
                 "unit": {"x": "1"}, "products": [["x", "y", {"x": "1"}]]}


@pytest.mark.parametrize("text, extra, needle", [
    ("{not json", [], "not valid JSON"),
    (json.dumps(UNKNOWN_ARROW), [], "unknown arrow(s): z"),
    (json.dumps(UNKNOWN_LABEL), [], "unknown basis label(s): y"),
    (None, ["--max-degree", "x"], "invalid int value"),
], ids=["bad-json", "unknown-arrow", "unknown-label", "usage"])
def test_exit_status_parse_error(tmp_path, text, extra, needle):
    args = ["hh"] + extra
    if text is not None:
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        args += ["--input", str(bad)]
    status, _, err = run_cli(args)
    assert status == 1
    assert "parse error" in err and needle in err


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        run_cli(["--help"])
    assert exc.value.code == 0


def test_exit_status_invariant_violation(tmp_path):
    doc = {"kind": "structure_constants", "name": "broken",
           "basis": ["x"], "unit": {"x": "1"},
           "products": [["x", "x", {"x": "2"}]]}   # unit law fails
    f = tmp_path / "broken.json"
    f.write_text(json.dumps(doc))
    status, _, err = run_cli(["describe", "--input", str(f)])
    assert status == 2
    assert "invariant" in err


@pytest.mark.parametrize("command", ["karoubi", "orbit"])
def test_exit_status_missing_identity(tmp_path, command):
    doc = json.loads((CAT / "two_block.json").read_text())
    del doc["identities"]["U"]
    f = tmp_path / "no_identity.json"
    f.write_text(json.dumps(doc))
    status, _, err = run_cli([command, "--input", str(f)])
    assert status == 2
    assert "no identity given for object(s): U" in err


def test_exit_status_cap_exceeded():
    # M2(Q) has no quiver: its complex at degree 8 has 39364 > 1000 chains
    status, _, err = run_cli(["hh", "--input", str(ALG / "m2q.json"),
                              "--max-degree", "8", "--cap", "1000"])
    assert status == 3
    assert "cap" in err
    # the vertex-relative complex of A3 vanishes above degree 0
    status, out, _ = run_cli(["hh", "--input", str(ALG / "a3.json"),
                              "--max-degree", "8", "--cap", "1000"])
    assert status == 0
    assert "HH dimensions" in out


def test_exit_status_uncertified():
    status, _, err = run_cli(["cnc", "--input",
                              str(ALG / "dual_numbers.json")])
    assert status == 4
    assert "uncertified" in err


def test_missing_input_flag():
    status, _, err = run_cli(["hh"])
    assert status == 1


def test_cap_env_override(monkeypatch):
    monkeypatch.setenv("NCMOTIVES_CAP", "1000")
    status, _, err = run_cli(["hh", "--input", str(ALG / "m2q.json"),
                              "--max-degree", "8"])
    assert status == 3
    status, _, err = run_cli(["hh", "--input", str(ALG / "a3.json"),
                              "--max-degree", "8"])
    assert status == 0


def test_exit_status_internal_error(monkeypatch):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli.COMMANDS, "hh", broken)
    status, out, err = run_cli(["hh", "--input", str(ALG / "a2.json")])
    assert status == 5
    assert out == ""
    assert err == "internal error: RuntimeError: boom\n"


def test_karoubi_command():
    status, out, _ = run_cli(["karoubi", "--input",
                              str(CAT / "two_block.json")])
    assert status == 0
    assert "objects after: 4" in out


def test_orbit_command():
    status, out, _ = run_cli(["orbit", "--input",
                              str(CAT / "graded_lines.json")])
    assert status == 0
    assert "invertible object: L1" in out


def test_reports_are_deterministic():
    """Byte-identical output on repeated runs, both formats."""
    for fmt in ("table", "structured"):
        runs = []
        for _ in range(2):
            status, out, _ = run_cli(["sbi", "--input",
                                      str(ALG / "dual_numbers.json"),
                                      "--max-degree", "5",
                                      "--format", fmt])
            assert status == 0
            runs.append(out)
        assert runs[0] == runs[1]


def test_subprocess_entry_point():
    """The module runs as a subprocess with identical output across runs."""
    cmd = [sys.executable, "-m", "ncmotives.cli", "hp",
           "--input", str(ALG / "qxq.json"), "--max-degree", "5"]
    env = dict(os.environ)
    outs = [subprocess.run(cmd, capture_output=True, text=True, env=env)
            for _ in range(2)]
    assert all(r.returncode == 0 for r in outs)
    assert outs[0].stdout == outs[1].stdout
    assert "even dimension: 2" in outs[0].stdout
