import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ncmotives import cli
from ncmotives.cli import main
from ncmotives.inputs import load_category

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


ALGEBRA_COMMANDS = ["describe", "hh", "hc", "sbi", "hp", "pair", "numquot",
                    "semisimple", "cnc", "dnc"]


def _assert_twins(command, quiver_file, rational_file, status=0):
    """The command exits with status on both files, with the same error or
    with structured payloads equal but for the algebra's name, where it is
    printed, and its basis.  Returns the quiver file's outcome."""
    outcomes = []
    for name in (quiver_file, rational_file):
        got, out, err = run_cli([command, "--input", str(ALG / name),
                                 "--format", "structured"])
        assert got == status, (name, err)
        if status == 0:
            payload = json.loads(out)
            algebra = payload.pop("algebra")
            payload.pop("basis", None)
            out = json.loads(json.dumps(payload).replace(algebra, "<algebra>"))
        outcomes.append(out if status == 0 else err)
    assert outcomes[0] == outcomes[1]
    return outcomes[0]


@pytest.mark.parametrize("command", ALGEBRA_COMMANDS)
def test_cubic_in_a_rational_basis_has_the_cubic_tables(command):
    """cubic_rational.json is Q[x]/x^3 in the basis 1, x + x^2/2, 2x^2 (one
    structure constant is 1/2, so its mixed complex has denominator 2).
    Its one unit term is a vertex named 1 and the rest of the basis is
    radical, so spans, pairings, the global dimension and the kernel
    comparison equal cubic.json's too, as every table does.  Both refuse
    cnc alike: HP is only WINDOW-STABLE at infinite global dimension."""
    out = _assert_twins(command, "cubic.json", "cubic_rational.json",
                        status=4 if command == "cnc" else 0)
    if command == "cnc":
        assert "needs CERTIFIED periodic realizations" in out


@pytest.mark.parametrize("command", ALGEBRA_COMMANDS)
def test_a2_in_a_rational_basis_has_the_a2_tables(command):
    """a2_rational.json is A2 in the basis 2e_1, 3a/2, -e_2/3, its unit's
    terms labelled 1 and 2 like a2.json's vertices: every command answers
    as on a2.json, HP CERTIFIED by global dimension 1 included."""
    payload = _assert_twins(command, "a2.json", "a2_rational.json")
    if command == "describe":
        assert payload["global dimension"] == 1
    if command == "hp":
        assert payload["certificate"] == "CERTIFIED"


def test_cli_sweep_smoke():
    """tools/cli_sweep.py on one input: one `argv | exit | sha256 | sha256`
    line per run, the same on a second run."""
    runs = [subprocess.run([sys.executable, str(REPO / "tools" / "cli_sweep.py"),
                            str(ALG / "q.json")], capture_output=True,
                           text=True, cwd=str(REPO)) for _ in range(2)]
    for run in runs:
        assert run.returncode == 0 and run.stderr == ""
    lines = runs[0].stdout.splitlines()
    # commands x degrees x formats, and hh --oracle in both formats
    assert len(lines) == 10 * 3 * 2 + 2
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


A2 = (ALG / "a2.json").read_text()


@pytest.mark.parametrize("text, extra, env, needle", [
    ("{not json", [], None, "not valid JSON"),
    (json.dumps(UNKNOWN_ARROW), [], None, "unknown arrow(s): z"),
    (json.dumps(UNKNOWN_LABEL), [], None, "unknown basis label(s): y"),
    (None, ["--max-degree", "x"], None, "invalid int value"),
    (A2, ["--max-degree", "-3"], None, "--max-degree: must be >= 0, got -3"),
    (A2, ["--cap", "-1"], None, "--cap: must be >= 0, got -1"),
    (None, ["--max-weight", "-2"], None, "--max-weight: must be >= 0"),
    (A2, [], "-1", "NCMOTIVES_CAP: must be >= 0, got -1"),
    (A2, [], "x", "NCMOTIVES_CAP: invalid int value: 'x'"),
], ids=["bad-json", "unknown-arrow", "unknown-label", "usage",
        "negative-degree", "negative-cap", "negative-weight",
        "negative-env-cap", "env-cap-not-int"])
def test_exit_status_parse_error(tmp_path, monkeypatch, text, extra, env,
                                 needle):
    """Malformed input files and arguments exit 1.  A negative degree
    bound, memory guard or weight cap is one of them (before, hh
    --max-degree -3 exited 2, --cap -1 and NCMOTIVES_CAP=-1 exited 3, and
    describe --max-degree -3 exited 0)."""
    if env is not None:
        monkeypatch.setenv("NCMOTIVES_CAP", env)
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


def test_non_associative_algebra_above_dimension_40_exits_2(tmp_path):
    """Associativity is checked on every triple at every dimension:
    (x1 x2) x3 = x4 x3 = x5 but x1 (x2 x3) = 0 in dimension 41."""
    basis = ["one"] + ["x%d" % i for i in range(1, 41)]
    products = [["one", b, {b: "1"}] for b in basis]
    products += [[b, "one", {b: "1"}] for b in basis[1:]]
    products += [["x1", "x2", {"x4": "1"}], ["x4", "x3", {"x5": "1"}]]
    doc = {"kind": "structure_constants", "name": "non-associative",
           "basis": basis, "unit": {"one": "1"}, "products": products}
    f = tmp_path / "non_associative.json"
    f.write_text(json.dumps(doc))
    status, out, err = run_cli(["describe", "--input", str(f)])
    assert status == 2
    assert "associativity fails on (x1,x2,x3)" in err
    assert "radical dimension" not in out


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
    # Q[x]/x^3 has the single idempotent 1, so its complex is taken over
    # Q.1: at degree 8 it has 1533 > 1000 chains
    status, _, err = run_cli(["hh", "--input", str(ALG / "cubic.json"),
                              "--max-degree", "8", "--cap", "1000"])
    assert status == 3
    assert "cap" in err
    # the complex of A3 relative to its vertex idempotents vanishes above
    # degree 0
    status, out, _ = run_cli(["hh", "--input", str(ALG / "a3.json"),
                              "--max-degree", "8", "--cap", "1000"])
    assert status == 0
    assert "HH dimensions" in out


def test_matrix_algebra_answers_under_the_cap():
    """M2(Q) is taken relative to its diagonal matrix units, found from the
    unit's terms: two chains per degree, so --cap 1000 admits degree 8
    (over Q.1 the complex has 39364 chains: exit 3)."""
    status, out, _ = run_cli(["hh", "--input", str(ALG / "m2q.json"),
                              "--max-degree", "8", "--cap", "1000",
                              "--format", "structured"])
    assert status == 0
    rows = json.loads(out)["HH dimensions"]["rows"]
    assert [int(d) for _, d in rows] == [1] + [0] * 7


@pytest.mark.parametrize("command", ["pair", "numquot", "semisimple"])
def test_k0_pairings_answer_under_a_tight_cap(command):
    """Pairings and span products of a quiver algebra come from class
    vectors and build no Hochschild complex, so --cap 2 leaves the answer
    as it is (before, the Euler characteristics of the Tor route exceeded
    the cap: exit 3); dnc still needs HP and refuses."""
    argv = [command, "--input", str(ALG / "square.json")]
    want = run_cli(argv)
    assert want[0] == 0
    assert run_cli(argv + ["--cap", "2"]) == want
    status, _, err = run_cli(["dnc", "--input", str(ALG / "square.json"),
                              "--cap", "2"])
    assert status == 3
    assert "cap" in err


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
    status, _, err = run_cli(["hh", "--input", str(ALG / "cubic.json"),
                              "--max-degree", "8"])
    assert status == 3
    status, _, err = run_cli(["hh", "--input", str(ALG / "m2q.json"),
                              "--max-degree", "8"])
    assert status == 0
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


def test_unknown_object_names_are_parse_errors(tmp_path):
    """Symmetry and tensor entries naming an object outside "objects" are
    refused at load (before, karoubi leaked KeyError: 'Q' and exit 5)."""
    doc = json.loads((CAT / "super_lines.json").read_text())
    doc["symmetry"] += [["P", "Q", {"0": "1"}], ["Q", "P", {"0": "1"}]]
    doc["tensor_objects"] += [["P", "Q", "Q"], ["Q", "P", "Q"]]
    f = tmp_path / "unknown_object.json"
    f.write_text(json.dumps(doc))
    for command in ("karoubi", "orbit"):
        status, out, err = run_cli([command, "--input", str(f)])
        assert status == 1
        assert out == ""
        assert err == ("parse error: tensor_objects names unknown "
                       "object(s): Q\n")


def test_negative_hom_dimension_is_a_parse_error(tmp_path):
    """A negative hom dimension is refused at load (before, karoubi and
    orbit both exited 0)."""
    doc = json.loads((CAT / "graded_lines.json").read_text())
    doc["hom"]["L-7|L-6"] = "-2"
    f = tmp_path / "negative_hom.json"
    f.write_text(json.dumps(doc))
    for command in ("karoubi", "orbit"):
        status, out, err = run_cli([command, "--input", str(f)])
        assert status == 1
        assert out == ""
        assert err == "parse error: hom L-7|L-6 has negative dimension -2\n"


def test_malformed_invertible_bound_is_a_parse_error(tmp_path):
    doc = json.loads((CAT / "graded_lines.json").read_text())
    doc["invertible"]["bound"] = "x"
    f = tmp_path / "bad_bound.json"
    f.write_text(json.dumps(doc))
    status, _, err = run_cli(["orbit", "--input", str(f)])
    assert status == 1
    assert "parse error: malformed invertible declaration" in err


def _set(path, value):
    """A mutation that stores value at the key path of the document."""
    def mutate(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return mutate


# a JSON list or string where an object is expected; each exited 5 with
# "internal error: AttributeError" before the loaders caught it
@pytest.mark.parametrize("demo, command, mutate", [
    ("m2q.json", "describe", _set(["unit"], ["e11", "e22"])),
    ("m2q.json", "describe", _set(["products", 0, 2], ["e11", "1"])),
    ("m2q.json", "describe", _set(["products", 0, 2], "e11")),
    ("two_block.json", "karoubi", _set(["hom"], ["U|U", 1])),
    ("two_block.json", "karoubi", _set(["identities"], ["U", "X"])),
    ("two_block.json", "karoubi", _set(["traces"], ["U", "X"])),
    ("two_block.json", "karoubi", _set(["grading"], [0, 0])),
    ("two_block.json", "karoubi", _set(["identities", "U"], ["1"])),
    ("two_block.json", "karoubi", _set(["composition", 0, 5], ["1"])),
    ("two_block.json", "karoubi", _set(["symmetry", 0, 2], ["1"])),
])
def test_a_list_or_string_for_an_object_is_a_parse_error(tmp_path, demo,
                                                         command, mutate):
    src = (ALG if command == "describe" else CAT) / demo
    doc = json.loads(src.read_text())
    mutate(doc)
    f = tmp_path / demo
    f.write_text(json.dumps(doc))
    status, out, err = run_cli([command, "--input", str(f)])
    assert (status, out) == (1, "")
    assert err.startswith("parse error: malformed ")


def _name_sites(doc):
    """Every place where the category document names an object, as
    (section, key or entry index, slot) triples; slot None is a dict key
    (for hom, the side of the "x|y" key)."""
    sites = [("unit", None, None)]
    sites += [("hom", key, side) for key in doc["hom"] for side in (0, 1)]
    sites += [("identities", key, None) for key in doc["identities"]]
    for section, width in (("composition", 3), ("tensor_objects", 3),
                           ("tensor_morphisms", 4), ("symmetry", 2)):
        sites += [(section, n, slot)
                  for n in range(len(doc.get(section, [])))
                  for slot in range(width)]
    for section in ("traces", "grading"):
        sites += [(section, key, None) for key in doc.get(section, {})]
    if "invertible" in doc:
        decl = doc["invertible"]
        sites += [("invertible", "object", None),
                  ("invertible", "inverse", None)]
        sites += [("invertible", "restrict_to", n)
                  for n in range(len(decl.get("restrict_to", [])))]
    return sites


def _rename(doc, site, fresh):
    section, key, slot = site
    if section == "unit":
        doc["unit"] = fresh
    elif section == "hom":
        names = key.split("|")
        names[slot] = fresh
        doc["hom"]["|".join(names)] = doc["hom"].pop(key)
    elif section == "invertible":
        if slot is None:
            doc["invertible"][key] = fresh
        else:
            doc["invertible"][key][slot] = fresh
    elif slot is None:
        doc[section][fresh] = doc[section].pop(key)
    else:
        doc[section][key][slot] = fresh


def _double_one_coefficient(doc, section, data):
    """Doubles one coefficient of one identity or symmetry vector: the
    unit laws or c_{y,x} c_{x,y} = id then fail."""
    if section == "identities":
        vec = doc["identities"][data.draw(st.sampled_from(
            sorted(doc["identities"])))]
    else:
        vec = data.draw(st.sampled_from(doc["symmetry"]))[2]
    k = data.draw(st.sampled_from(sorted(vec)))
    vec[k] = str(2 * Fraction(vec[k]))


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_corrupted_category_files_exit_with_parse_or_invariant_error(
        tmp_path_factory, data):
    """A demo category file with one object name replaced by an unknown
    one, an object dropped from "objects", a required field deleted, or one
    identity or symmetry coefficient doubled exits with status 1 (parse
    error) or 2 (invariant violation), never 3-5."""
    path = data.draw(st.sampled_from(sorted(CAT.glob("*.json"))))
    doc = json.loads(path.read_text())
    kind = data.draw(st.sampled_from(
        ["rename", "drop-object", "delete-field", "double"]))
    if kind == "rename":
        _rename(doc, data.draw(st.sampled_from(_name_sites(doc))), "Z?")
        want = 1
    elif kind == "drop-object":
        doc["objects"].remove(data.draw(st.sampled_from(doc["objects"])))
        want = 1
    elif kind == "delete-field":
        del doc[data.draw(st.sampled_from(
            ["objects", "unit", "hom", "identities"]))]
        want = 1
    else:
        _double_one_coefficient(
            doc, data.draw(st.sampled_from(["identities", "symmetry"])), data)
        want = 2
    f = tmp_path_factory.mktemp("corrupt") / path.name
    f.write_text(json.dumps(doc))
    command = data.draw(st.sampled_from(["karoubi", "orbit"]))
    status, out, err = run_cli([command, "--input", str(f)])
    assert status in (1, 2)
    assert status == want, err
    assert out == ""


def test_karoubi_command():
    status, out, _ = run_cli(["karoubi", "--input",
                              str(CAT / "two_block.json")])
    assert status == 0
    assert "objects after: 4" in out


def test_karoubi_refuses_an_end_above_the_cap(tmp_path):
    """End(X) = Q^5, five orthogonal idempotents, is above the idempotent
    enumeration cap of 4."""
    doc = {"kind": "category_presentation", "name": "five lines",
           "objects": ["X"], "unit": "X", "hom": {"X|X": 5},
           "composition": [["X", "X", "X", i, i, {str(i): "1"}]
                           for i in range(5)],
           "identities": {"X": {str(i): "1" for i in range(5)}}}
    f = tmp_path / "five_lines.json"
    f.write_text(json.dumps(doc))
    status, out, err = run_cli(["karoubi", "--input", str(f)])
    assert status == 3
    assert out == ""
    assert err == ("cap exceeded: idempotent enumeration cap is dimension "
                   "4; End(X) has dimension 5\n")


def test_load_category_keeps_integral_coefficients_as_ints(tmp_path):
    """Integral coefficients load as ints, the exactlin convention, and
    the rest as Fractions."""
    doc = json.loads((CAT / "two_block.json").read_text())
    doc["traces"]["X"] = {"0": "1/2", "1": "4/2"}
    f = tmp_path / "half_trace.json"
    f.write_text(json.dumps(doc))
    cat, _ = load_category(str(f))
    assert cat.traces["X"] == {0: Fraction(1, 2), 1: 2}
    assert type(cat.traces["X"][0]) is Fraction
    vectors = [*cat.ident.values(), *cat.traces.values(),
               *cat.symmetry.values()]
    vectors += [v for t in (*cat.comp.values(), *cat.tensor_mor.values())
                for v in t.values()]
    assert all(type(c) is int for vec in vectors for c in vec.values()
               if c != Fraction(1, 2))


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
