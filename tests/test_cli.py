"""End-to-end command-line checks, run through subprocess and, for the
byte sweep, in-process through ``cli.main``."""

import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import framelab as fl
from framelab import cli

from subprocess_env import subprocess_env
from test_serialize import NOT_INTEGERS, NOT_NUMBERS


def run_cli(args, cwd, env_extra=None):
    return subprocess.run(
        [sys.executable, "-m", "framelab", *args],
        cwd=cwd,
        env=subprocess_env(env_extra or {}),
        capture_output=True,
        text=True,
    )


def test_gen_simplex_and_analyze(tmp_path):
    r = run_cli(["gen", "simplex", "--dim", "3", "--out", "s.json"], tmp_path)
    assert r.returncode == 0, r.stderr
    assert "simplex" in r.stdout and "n=4" in r.stdout
    f = fl.frame_from_json(fl.load_json(tmp_path / "s.json"))
    assert f.vectors.shape == (4, 3)

    r = run_cli(["analyze", "s.json"], tmp_path)
    assert r.returncode == 0, r.stderr
    report = json.loads(r.stdout.splitlines()[0])
    assert report["num_vectors"] == 4 and report["dim"] == 3
    assert report["is_tight"] and not report["is_parseval"]
    assert report["is_equiangular"]


def test_gen_harmonic_selector_and_default_name(tmp_path):
    r = run_cli(
        ["gen", "harmonic", "--dim", "2", "--n", "5", "--selector", "1,3"],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    f = fl.frame_from_json(fl.load_json(tmp_path / "harmonic.json"))
    assert f.vectors.shape == (5, 2)
    assert fl.is_parseval(f)
    # --sel is an accepted spelling of the same flag
    r = run_cli(
        ["gen", "harmonic", "--dim", "2", "--n", "5", "--sel", "1,2",
         "--out", "h2.json"],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    assert fl.is_parseval(fl.frame_from_json(fl.load_json(tmp_path / "h2.json")))


def test_gen_random_parseval_seed_repeatable(tmp_path):
    a1 = run_cli(
        ["gen", "random-parseval", "--dim", "3", "--n", "7", "--seed", "9",
         "--out", "a.json"],
        tmp_path,
    )
    a2 = run_cli(
        ["gen", "random-parseval", "--dim", "3", "--n", "7", "--seed", "9",
         "--out", "b.json"],
        tmp_path,
    )
    assert a1.returncode == 0 and a2.returncode == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_gen_bjorck_and_cazac_test(tmp_path):
    r = run_cli(["gen", "bjorck", "--p", "13", "--out", "u.json"], tmp_path)
    assert r.returncode == 0, r.stderr
    r = run_cli(["cazac", "test", "u.json"], tmp_path)
    assert r.returncode == 0, r.stderr
    report = json.loads(r.stdout.splitlines()[0])
    assert report["ok"] and report["length"] == 13

    r = run_cli(["cazac", "ambiguity", "u.json", "--out", "amb.csv"], tmp_path)
    assert r.returncode == 0, r.stderr
    rows = (tmp_path / "amb.csv").read_text().strip().split("\n")
    assert len(rows) == 13 and len(rows[0].split(",")) == 13


def test_cazac_gabor_report(tmp_path):
    run_cli(["gen", "quadratic-phase", "--len", "9", "--out", "u.json"], tmp_path)
    r = run_cli(["cazac", "gabor", "u.json", "--out", "g.json"], tmp_path)
    assert r.returncode == 0, r.stderr
    report = json.loads(r.stdout.splitlines()[0])
    assert report["num_vectors"] == 81 and report["tight_constant"] == 9.0
    assert report["tight_deviation"] <= 1e-9
    f = fl.frame_from_json(fl.load_json(tmp_path / "g.json"))
    assert f.vectors.shape == (81, 9)


def test_cazac_gabor_of_a_length_1_sequence_exits_3(tmp_path):
    # Its frame has one vector, so there is no coherence to report.
    (tmp_path / "u.json").write_text('{"length": 1, "entries": [[1, 0]]}')
    r = run_cli(["cazac", "gabor", "u.json"], tmp_path)
    assert r.returncode == 3
    assert r.stderr == "error: coherence needs at least two vectors\n"
    assert r.stdout == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["u.json"]


def test_analyze_sequence_and_povm(tmp_path):
    run_cli(["gen", "quadratic-phase", "--len", "7", "--out", "u.json"], tmp_path)
    r = run_cli(["analyze", "u.json"], tmp_path)
    assert r.returncode == 0, r.stderr
    rep = json.loads(r.stdout.splitlines()[0])
    assert rep["ok"] and "ambiguity_peak" in rep

    run_cli(["gen", "onb", "--dim", "2", "--out", "f.json"], tmp_path)
    run_cli(["convert", "--to", "povm", "--out", "p.json"] + ["f.json"], tmp_path)
    r = run_cli(["analyze", "p.json"], tmp_path)
    assert r.returncode == 0, r.stderr
    rep = json.loads(r.stdout.splitlines()[0])
    assert rep["valid"] and rep["num_effects"] == 2


def test_convert_roundtrip(tmp_path):
    run_cli(
        ["gen", "random-parseval", "--dim", "2", "--n", "5", "--seed", "3",
         "--out", "f.json"],
        tmp_path,
    )
    r = run_cli(
        ["convert", "f.json", "--to", "povm", "--partition", "0,1;2,3,4",
         "--out", "p.json"],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    povm = fl.povm_from_json(fl.load_json(tmp_path / "p.json"))
    assert len(povm.effects) == 2
    assert povm.partition == [[0, 1], [2, 3, 4]]

    r = run_cli(["convert", "p.json", "--to", "frame", "--out", "g.json"], tmp_path)
    assert r.returncode == 0, r.stderr
    assert "dropped=" in r.stdout
    payload = json.loads((tmp_path / "g.json").read_text())
    assert payload["dropped"] >= 0
    assert payload["partition"] is not None
    g = fl.frame_from_json(payload)
    assert fl.is_parseval(g)


@pytest.mark.parametrize("option, direction, other", [
    (["--to", "povm", "--pad-zeros"], "frame", "povm"),
    (["--to", "frame", "--partition", "0;1,2"], "povm", "frame"),
], ids=["pad-zeros", "partition"])
def test_convert_rejects_an_option_of_the_other_direction(
        option, direction, other, tmp_path, monkeypatch, capsys):
    # Both commands exited 0 and ignored the option.
    monkeypatch.chdir(tmp_path)
    assert cli.main("gen random-parseval --dim 2 --n 3 --seed 1 "
                    "--out f.json".split()) == 0
    assert cli.main("convert f.json --to povm --out p.json".split()) == 0
    capsys.readouterr()
    source = "f.json" if other == "povm" else "p.json"
    assert cli.main(["convert", source, *option, "--out", "x.json"]) == 2
    assert capsys.readouterr() == ("", (
        f"error: {option[2]} applies to 'convert --to {direction}', "
        f"not 'convert --to {other}'\n"))
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("command, empty, separator, code, error", [
    ("gen harmonic --dim 2 --n 5 --out x.json --selector", "", ",", 2,
     "bad selector: {!r}"),
    ("convert f.json --to povm --out x.json --partition", "", ";", 3,
     "indices not covered: [0, 1, 2]"),
], ids=["selector", "partition"])
def test_an_empty_value_is_given_not_absent(command, empty, separator, code,
                                            error, tmp_path, monkeypatch,
                                            capsys):
    # An empty --selector or --partition was read as not given: both
    # commands exited 0 and wrote the default selector's frame or an
    # ungrouped POVM.  Now each fails as the bare separator does.
    monkeypatch.chdir(tmp_path)
    assert cli.main("gen random-parseval --dim 2 --n 3 --seed 1 "
                    "--out f.json".split()) == 0
    capsys.readouterr()
    for value in (empty, separator):
        assert cli.main([*command.split(), value]) == code
        assert capsys.readouterr() == (
            "", "error: " + error.format(value) + "\n")
        assert not (tmp_path / "x.json").exists()


def test_convert_names_an_overflowing_frame_operator(tmp_path, monkeypatch,
                                                     capsys):
    # It exited 3, calling the frame not Parseval, off by inf.
    monkeypatch.chdir(tmp_path)
    fl.write_json("f.json", {"dim": 2, "field": "R", "vectors": [
        [1e200, 1e200], [1e200, -1e200], [1e200, 0.0]]})
    with pytest.warns(RuntimeWarning, match="overflow"):
        code = cli.main("convert f.json --to povm --out p.json".split())
    assert code == 2
    assert capsys.readouterr() == ("", "error: frame operator overflows: sums "
                                   "of squared vector entries exceed the "
                                   "float64 range\n")


def test_gleason_fit_and_verify(tmp_path):
    r = run_cli(
        ["gleason", "fit", "--spec", "cos2d:2", "--samples", "200",
         "--seed", "1"],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    rep = json.loads(r.stdout.splitlines()[0])
    assert rep["verdict"] == "quadratic"
    op = np.array([[e[0] for e in row] for row in rep["operator"]])
    assert np.allclose(op, np.diag([2.0, 0.0]), atol=1e-9)

    r = run_cli(
        ["gleason", "verify-onb", "--spec", "cos2d:6", "--trials", "40",
         "--seed", "2"],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    rep = json.loads(r.stdout.splitlines()[0])
    assert rep["passed"]

    r = run_cli(
        ["gleason", "verify-parseval", "--spec", "expnorm", "--dim", "2",
         "--n", "3", "--trials", "30", "--seed", "2"],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    rep = json.loads(r.stdout.splitlines()[0])
    assert not rep["passed"]


@pytest.mark.parametrize("spec", [
    '{"kind":"cos2d"}',
    '{"kind":"cos2d","n":"x"}',
    '{"kind":"epsilon1d"}',
    '{"kind":"epsilon1d","eps":[1]}',
    '{"kind":"expnorm","dim":"a"}',
    '{"kind":"expnorm","dim":2,"field":"X"}',
    '{"kind":"quadratic","operator":[[1,0],[0,2]],"const":"z"}',
])
def test_gleason_malformed_json_spec_exits_2(tmp_path, spec):
    r = run_cli(["gleason", "fit", "--spec", spec], tmp_path)
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("error: ") and "Traceback" not in r.stderr


@pytest.mark.parametrize("spec, kind, key", [
    ('{"kind":"epsilon1d","eps":"0.2"}', "epsilon1d", "eps"),
    ('{"kind":"cos2d","n":2.9}', "cos2d", "n"),
    ('{"kind":"cos2d","n":true}', "cos2d", "n"),
    ('{"kind":"cos2d","n":"6"}', "cos2d", "n"),
    ('{"kind":"expnorm","dim":2.5}', "expnorm", "dim"),
    ('{"kind":"expnorm","dim":true}', "expnorm", "dim"),
    # an integer beyond the float range is no JSON number either
    ('{"kind":"cos2d","n":1%s}' % ("0" * 400), "cos2d", "n"),
    ('{"kind":"quadratic","operator":[[1,0],[0,2]],"const":"0.5"}',
     "quadratic", "const"),
    ('{"kind":"quadratic","operator":[[1,0],[0,2]],"const":false}',
     "quadratic", "const"),
    # compact specs stand for the same JSON objects
    ("cos2d:2.9", "cos2d", "n"),
    ("cos2d:true", "cos2d", "n"),
    ("cos2d:x", "cos2d", "n"),
    ("epsilon1d:x", "epsilon1d", "eps"),
    # NaN and Infinity are words Python's json reads, not JSON numbers
    ("epsilon1d:NaN", "epsilon1d", "eps"),
    ("epsilon1d:-Infinity", "epsilon1d", "eps"),
    ('{"kind":"quadratic","operator":[[1,0],[0,2]],"const":NaN}',
     "quadratic", "const"),
    ('{"kind":"quadratic","operator":[[1,0],[0,2]],"const":Infinity}',
     "quadratic", "const"),
])
def test_gleason_spec_fields_follow_the_json_number_rule(
        spec, kind, key, tmp_path, monkeypatch, capsys):
    # Strings, bools and, for counts and dimensions, non-integral
    # numbers are rejected like the file loaders reject them.
    monkeypatch.chdir(tmp_path)
    assert cli.main(["gleason", "fit", "--spec", spec, "--samples", "8"]) == 2
    assert capsys.readouterr().err == (
        f"error: {kind} spec needs a valid '{key}'\n")


@pytest.mark.parametrize("spec", [
    "quadratic:3", "expnorm:zzz", "rational_indicator:1",
])
def test_compact_spec_rejects_text_its_kind_does_not_take(
        spec, tmp_path, monkeypatch, capsys):
    # These kinds take no number, so text after the colon is bad input
    # rather than something to ignore.
    monkeypatch.chdir(tmp_path)
    assert cli.main(["gleason", "fit", "--spec", spec, "--dim", "2",
                     "--samples", "8"]) == 2
    name = spec.partition(":")[0]
    assert capsys.readouterr().err == (
        f"error: compact '{name}' spec takes no text after ':'\n")


def test_gleason_spec_counts_accept_integral_floats(
        tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    outputs = []
    for spec in ("cos2d:6", '{"kind":"cos2d","n":6}',
                 '{"kind":"cos2d","n":6.0}', "cos2d:6.0"):
        assert cli.main(
            ["gleason", "fit", "--spec", spec, "--samples", "8"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[1:] == outputs[:1] * 3


def test_gleason_inline_json_spec_and_ladder(tmp_path):
    spec = json.dumps(
        {"kind": "quadratic", "operator": [[1.0, 0.0], [0.0, 2.0]], "const": 0.5}
    )
    r = run_cli(
        ["gleason", "ladder", "--spec", spec, "--n0", "4", "--n1", "6",
         "--trials", "15", "--seed", "3"],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    rep = json.loads(r.stdout.splitlines()[0])
    assert rep["degrees"] == [4, 5, 6]
    assert rep["increments_ok"]
    assert abs(rep["g_at_zero"] - 0.5) < 1e-12


def test_gleason_counterexample_mode(tmp_path):
    r = run_cli(
        ["gleason", "counterexample", "--spec", "expnorm", "--dim", "2",
         "--trials", "25", "--samples", "100", "--seed", "3"],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    rep = json.loads(r.stdout.splitlines()[0])
    assert rep["is_counterexample"]
    assert rep["onb"]["passed"] and not rep["parseval"]["passed"]
    assert not rep["homogeneity"]["passed"]

    r = run_cli(
        ["gleason", "counterexample", "--spec", "epsilon1d:0.2",
         "--trials", "25", "--samples", "100", "--seed", "3"],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    rep = json.loads(r.stdout.splitlines()[0])
    assert rep["is_counterexample"]
    assert abs(rep["explicit_degree3"]["sum"] - 2.2) < 1e-12

    # a genuine quadratic form is reported as explainable, strict exits 4
    r = run_cli(
        ["gleason", "counterexample", "--spec", "quadratic", "--dim", "2",
         "--trials", "20", "--samples", "100", "--seed", "1", "--strict"],
        tmp_path,
    )
    assert r.returncode == 4
    rep = json.loads(r.stdout.splitlines()[0])
    assert not rep["is_counterexample"]


def test_experiment_commands(tmp_path):
    r = run_cli(
        ["experiment", "weight-trace", "--trials", "20", "--seed", "4"],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    rep = json.loads(r.stdout.splitlines()[0])
    assert rep["max_deviation"] <= 1e-9

    r = run_cli(
        ["experiment", "busch", "--dim", "2", "--states", "5",
         "--trials", "10", "--seed", "5"],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    rep = json.loads(r.stdout.splitlines()[0])
    assert rep["passed"] and rep["n_family"] == 4

    r = run_cli(
        ["experiment", "born", "--dim", "3", "--trials", "25", "--seed", "6"],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    rep = json.loads(r.stdout.splitlines()[0])
    assert rep["min_probability"] >= -1e-10
    assert rep["max_sum_deviation"] <= 1e-10


@pytest.mark.parametrize("env", [{}, {"OPENBLAS_CORETYPE": "Sandybridge"}],
                         ids=["default", "sandybridge"])
def test_readme_quotes_the_weight_trace_deviation(tmp_path, env):
    # README quotes the max_deviation of this command for each BLAS
    # kernel it names; on another kernel the last bits may differ
    # (ROADMAP item 5), so only a kernel README names is checked.
    r = run_cli(["experiment", "weight-trace", "--trials", "50", "--seed",
                 "0"], tmp_path, {**env, "OPENBLAS_VERBOSE": "2"})
    assert r.returncode == 0, r.stderr
    readme = " ".join(
        (Path(__file__).parent.parent / "README.md").read_text().split())
    core = re.search(r"Core: (\w+)", r.stderr)
    if core is None or core.group(1) not in readme:
        pytest.skip("README quotes no figure for this BLAS kernel")
    deviation = re.search(r'"max_deviation":([^,}]+)', r.stdout).group(1)
    assert re.search(re.escape(deviation) + r" [^0-9]*" + core.group(1),
                     readme), (deviation, core.group(1))


def test_weight_trace_runs_in_dimension_one(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main("experiment weight-trace --dim 1 --n 2".split()) == 0
    rep = json.loads(capsys.readouterr().out.splitlines()[0])
    assert rep["dim"] == 1 and rep["passed"]


@pytest.mark.parametrize("command", [
    "experiment born --trials 0",
    "experiment busch --states 0",
    "experiment weight-trace --trials 0 --strict",
])
def test_experiments_reject_a_zero_count(command, tmp_path, monkeypatch,
                                         capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(command.split()) == 2
    assert capsys.readouterr() == ("", "error: need at least one trial\n")


@pytest.mark.parametrize("command, code, message", [
    # a count below its own floor is bad input ...
    ("experiment weight-trace --dim 0", 2, "dimension must be at least 1"),
    ("experiment born --dim 0", 2, "dimension must be at least 1"),
    # ... and a relation between counts a precondition
    ("experiment weight-trace --n 0", 3, "need N >= d >= 1, got N=0, d=3"),
    ("experiment busch --n-family 4", 3, "family size 4 is below d + 2 = 5"),
])
def test_experiment_count_floors_and_relations(command, code, message,
                                               tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(command.split()) == code
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_gen_exits_2_at_once_on_a_dimension_too_large_to_draw(
        tmp_path, monkeypatch, capsys):
    # Its 10**24 normals overflow the index type, so nothing is drawn.
    monkeypatch.chdir(tmp_path)
    assert cli.main("gen random-onb --dim 1000000000000".split()) == 2
    assert capsys.readouterr() == ("", "error: a draw of shape "
                                   "(1000000000000, 1000000000000) is too "
                                   "large\n")


@pytest.mark.parametrize("mode", ["born", "busch"])
def test_experiment_tol_below_roundoff_fails_the_verdict_only(
        mode, tmp_path, monkeypatch, capsys):
    # The random POVMs are built at the default tolerance; --tol judges
    # only the experiment's verdict.
    monkeypatch.chdir(tmp_path)
    command = f"experiment {mode} --dim 2 --trials 3 --tol 1e-17".split()
    if mode == "busch":
        command += ["--states", "2"]
    assert cli.main(command) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["tol"] == 1e-17 and not report["passed"]
    assert cli.main([*command, "--strict"]) == 4


# --- exit codes --------------------------------------------------------------


def test_exit_2_bad_input(tmp_path):
    r = run_cli(["gen", "bjorck", "--p", "12"], tmp_path)
    assert r.returncode == 2
    assert "prime" in r.stderr

    r = run_cli(["analyze", "missing.json"], tmp_path)
    assert r.returncode == 2

    (tmp_path / "junk.json").write_text("{not json")
    r = run_cli(["analyze", "junk.json"], tmp_path)
    assert r.returncode == 2

    (tmp_path / "odd.json").write_text('{"mystery": 1}')
    r = run_cli(["analyze", "odd.json"], tmp_path)
    assert r.returncode == 2

    digits = "1" + "0" * 5000  # past Python's int-to-str conversion limit
    (tmp_path / "long.json").write_text(
        '{"dim": 1, "field": "R", "vectors": [[%s]]}' % digits)
    r = run_cli(["analyze", "long.json"], tmp_path)
    assert r.returncode == 2

    (tmp_path / "deep.json").write_text(
        '{"dim": 1, "field": "R", "vectors": %s1.0%s}' % ("[" * 33, "]" * 33))
    (tmp_path / "latin1.json").write_bytes(b'{"mystery": "\xff"}')
    (tmp_path / "nested.json").write_text("[" * 200_000 + "]" * 200_000)
    for name in ("deep.json", "latin1.json", "nested.json"):
        r = run_cli(["analyze", name], tmp_path)
        assert r.returncode == 2
        assert r.stderr.startswith("error: ") and "Traceback" not in r.stderr

    r = run_cli(["gleason", "fit", "--spec", "no-such-kind"], tmp_path)
    assert r.returncode == 2


@pytest.mark.parametrize("name", sorted(NOT_NUMBERS))
def test_analyze_exits_2_on_an_entry_that_is_not_a_number(
        name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    fl.write_json("bad.json", NOT_NUMBERS[name])
    assert cli.main(["analyze", "bad.json"]) == 2
    assert "not a number" in capsys.readouterr().err


# A dimension, length or partition entry of a file follows the integer
# rule: `true` loaded as 1 (exit 0) and `2.0` was a bad dimension
# (exit 2) before it.
@pytest.mark.parametrize("name", ["frame-dim-true", "povm-dim-true",
                                  "povm-partition-true",
                                  "sequence-length-true"])
def test_analyze_exits_2_on_a_count_that_is_no_integer(
        name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    fl.write_json("bad.json", NOT_INTEGERS[name])
    assert cli.main(["analyze", "bad.json"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "must be an integer, got True" in err


def test_analyze_takes_an_integral_float_dimension(tmp_path, monkeypatch,
                                                   capsys):
    monkeypatch.chdir(tmp_path)
    outputs = []
    for dim in ("2", "2.0"):  # the emitter would write 2.0 as 2
        with open("f.json", "w") as fh:
            fh.write('{"dim": %s, "field": "R", "vectors": [[1, 0], [0, 1]]}'
                     % dim)
        assert cli.main(["analyze", "f.json"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_exit_2_bad_tol_env(tmp_path):
    run_cli(["gen", "simplex", "--dim", "2", "--out", "s.json"], tmp_path)
    r = run_cli(["analyze", "s.json"], tmp_path, env_extra={"FRAMELAB_TOL": "zero"})
    assert r.returncode == 2
    assert "FRAMELAB_TOL" in r.stderr
    r = run_cli(["analyze", "s.json"], tmp_path, env_extra={"FRAMELAB_TOL": "-1"})
    assert r.returncode == 2


def test_exit_3_precondition(tmp_path):
    (tmp_path / "short.json").write_text(
        '{"dim": 1, "field": "R", "vectors": [[2.0]]}'
    )
    r = run_cli(
        ["convert", "short.json", "--to", "povm", "--out", "p.json"], tmp_path
    )
    assert r.returncode == 3
    assert "Parseval" in r.stderr

    bad_povm = {
        "dim": 2,
        "effects": [
            [[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]],
        ],
        "partition": None,
    }
    (tmp_path / "bad.json").write_text(json.dumps(bad_povm))
    r = run_cli(
        ["convert", "bad.json", "--to", "frame", "--out", "f.json"], tmp_path
    )
    assert r.returncode == 3


def test_exit_4_strict(tmp_path):
    ones = {"length": 8, "entries": [[1.0, 0.0]] * 8}
    (tmp_path / "ones.json").write_text(json.dumps(ones))
    r = run_cli(["cazac", "test", "ones.json", "--strict"], tmp_path)
    assert r.returncode == 4
    # without --strict the failing report still exits 0
    r = run_cli(["cazac", "test", "ones.json"], tmp_path)
    assert r.returncode == 0

    r = run_cli(
        ["gleason", "verify-onb", "--spec",
         '{"kind": "custom_power4", "dim": 2}',
         "--trials", "30", "--seed", "1", "--strict"],
        tmp_path,
    )
    # unknown custom kind is an input error, not a verification failure
    assert r.returncode == 2


@pytest.mark.parametrize("mode", ["ambiguity", "gabor"])
def test_cazac_strict_outside_test_mode_is_an_input_error(tmp_path, mode):
    # [1, 1, 1] is not ZAC, so `cazac test --strict` exits 4; the other
    # modes have no verdict, so --strict there is a bad parameter.
    (tmp_path / "ones.json").write_text(
        json.dumps({"length": 3, "entries": [1.0, 1.0, 1.0]})
    )
    assert run_cli(["cazac", "test", "ones.json", "--strict"],
                   tmp_path).returncode == 4
    r = run_cli(["cazac", mode, "ones.json", "--strict"], tmp_path)
    assert r.returncode == 2
    assert r.stderr.startswith("error:") and "cazac test" in r.stderr
    assert r.stdout == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ones.json"]

    r = run_cli(
        ["gleason", "fit", "--spec", "cos2d:6", "--samples", "150",
         "--seed", "1", "--strict"],
        tmp_path,
    )
    assert r.returncode == 4

    bad_povm = {
        "dim": 2,
        "effects": [[[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]],
        "partition": None,
    }
    (tmp_path / "half.json").write_text(json.dumps(bad_povm))
    r = run_cli(["analyze", "half.json", "--strict"], tmp_path)
    assert r.returncode == 4


def test_tol_env_is_honored(tmp_path):
    run_cli(["gen", "simplex", "--dim", "2", "--out", "s.json"], tmp_path)
    # with an absurdly loose tolerance the simplex counts as Parseval
    r = run_cli(["analyze", "s.json"], tmp_path, env_extra={"FRAMELAB_TOL": "10"})
    assert r.returncode == 0
    rep = json.loads(r.stdout.splitlines()[0])
    assert rep["is_parseval"]


def test_stdout_byte_identity(tmp_path):
    args = [
        "gleason", "verify-parseval", "--spec", "quadratic", "--dim", "2",
        "--n", "4", "--trials", "20", "--seed", "7",
    ]
    r1 = run_cli(args, tmp_path)
    r2 = run_cli(args, tmp_path)
    assert r1.returncode == r2.returncode == 0
    assert r1.stdout == r2.stdout
    rep = json.loads(r1.stdout.splitlines()[0])
    assert rep["seed"] == 7


def test_out_file_matches_stdout_json(tmp_path):
    # Every report command writes to --out the bytes it prints.
    run_cli(["gen", "bjorck", "--p", "7", "--out", "u.json"], tmp_path)
    for command in (
        "experiment born --dim 2 --trials 5 --seed 0",
        "gleason counterexample --spec epsilon1d:0.2 --trials 4 --samples 20",
        "cazac test u.json",
        "analyze u.json",
    ):
        r = run_cli([*command.split(), "--out", "report.json"], tmp_path)
        assert r.returncode == 0, r.stderr
        assert (tmp_path / "report.json").read_bytes() == r.stdout.encode()


@pytest.mark.parametrize("command, record, keys", [
    ("gleason fit --spec cos2d:6 --samples 64 --seed 1",
     lambda: fl.fit_quadratic(fl.cos_counterexample(6), samples=64, seed=1),
     {}),
    ("gleason counterexample --spec expnorm --dim 2 --field R --trials 8 "
     "--samples 30 --seed 13",
     lambda: fl.counterexample_battery(fl.expnorm_gleason(2, "R"), trials=8,
                                       samples=30, seed=13),
     {"object": "counterexample"}),
    ("experiment born --dim 2 --trials 5 --seed 0",
     lambda: fl.born_experiment(2, trials=5, seed=0),
     {"experiment": "born"}),
], ids=["fit", "counterexample", "experiment"])
def test_a_printed_report_is_its_record_plus_the_cli_keys(
        command, record, keys, tmp_path, monkeypatch, capsys):
    # The library's canonical_json of a record and the CLI's report are
    # one text.  The fit's operator was written as reals by the one and
    # as [re, im] pairs by the other, and a real-field homogeneity
    # witness as real x and alpha by the one and complex by the other.
    monkeypatch.delenv("FRAMELAB_TOL", raising=False)
    monkeypatch.chdir(tmp_path)
    assert cli.main(command.split()) == 0
    want = fl.canonical_json(record()._asdict() | keys)
    assert capsys.readouterr() == (want + "\n", "")


@pytest.mark.parametrize("command, keys", [
    ("analyze u.json", {"object": "sequence"}),
    ("cazac test u.json", {}),
], ids=["analyze", "cazac-test"])
def test_a_sequence_report_is_the_cazac_record(
        command, keys, tmp_path, monkeypatch, capsys):
    # Both peaks come from is_cazac; the CLI adds only its own keys.
    monkeypatch.delenv("FRAMELAB_TOL", raising=False)
    monkeypatch.chdir(tmp_path)
    assert cli.main("gen quadratic-phase --len 9 --out u.json".split()) == 0
    capsys.readouterr()
    assert cli.main(command.split()) == 0
    record = fl.is_cazac(fl.sequence_from_json(fl.load_json("u.json")))
    printed = capsys.readouterr()
    assert printed == (fl.canonical_json(record._asdict() | keys) + "\n", "")
    assert "ambiguity_peak" in json.loads(printed.out)


# Fixed-seed commands whose stdout is pinned by SHA-256: every gleason
# mode (a complex quadratic form, the epsilon swap on the line, the
# cos(6 t) family, expnorm with a homogeneity witness), the three
# experiments, the CAZAC tools on Bjorck sequences of lengths 23
# and 67 (a 529- and a 4489-vector Gabor frame), every gen kind,
# analyze of each object kind (valid and invalid POVMs among them),
# both convert directions with their options, and the inline-JSON and
# .json-file spec forms.
# Commands joined by " && " run in turn in one directory; the files
# they leave there are hashed with their stdout.
SWEEP = {
    "fit-cos6": "gleason fit --spec cos2d:6 --samples 64 --seed 1",
    "fit-quadratic-C": "gleason fit --spec quadratic --dim 3 --field C "
                       "--samples 50 --seed 2",
    "onb-quadratic-C": "gleason verify-onb --spec quadratic --dim 3 "
                       "--field C --trials 20 --seed 3",
    "onb-indicator": "gleason verify-onb --spec rational_indicator "
                     "--trials 10 --seed 9",
    "parseval-expnorm": "gleason verify-parseval --spec expnorm --dim 2 "
                        "--n 4 --trials 10 --seed 4",
    "parseval-quadratic-R": "gleason verify-parseval --spec quadratic "
                            "--dim 2 --field R --const 0.25 --n 3 "
                            "--trials 10 --seed 5",
    "ce-epsilon1d": "gleason counterexample --spec epsilon1d:0.2 "
                    "--trials 10 --samples 40 --seed 6",
    "ce-cos6": "gleason counterexample --spec cos2d:6 --trials 10 "
               "--samples 40 --seed 7",
    "ce-expnorm": "gleason counterexample --spec expnorm --dim 2 "
                  "--trials 8 --samples 30 --seed 13",
    "ladder-quadratic": "gleason ladder --spec quadratic --dim 2 "
                        "--const 0.5 --n0 4 --n1 6 --trials 5 --seed 8",
    "weight-trace": "experiment weight-trace --dim 3 --n 5 --trials 20 "
                    "--seed 10",
    "busch": "experiment busch --dim 2 --states 3 --trials 5 --seed 11",
    "born": "experiment born --dim 3 --trials 10 --seed 12",
    "bjorck-23": "gen bjorck --p 23",
    "cazac-test-23": "gen bjorck --p 23 && cazac test bjorck.json",
    "cazac-ambiguity-23": "gen bjorck --p 23 && cazac ambiguity bjorck.json",
    "cazac-gabor-23": "gen bjorck --p 23 && cazac gabor bjorck.json",
    "bjorck-67": "gen bjorck --p 67",
    "cazac-test-67": "gen bjorck --p 67 && cazac test bjorck.json",
    "cazac-ambiguity-67": "gen bjorck --p 67 && cazac ambiguity bjorck.json",
    "cazac-gabor-67": "gen bjorck --p 67 && cazac gabor bjorck.json",
    "random-onb-R-2": "gen random-onb --dim 2 --field R --seed 21",
    "random-onb-R-4": "gen random-onb --dim 4 --field R --seed 22",
    "random-onb-R-7": "gen random-onb --dim 7 --field R --seed 23",
    "random-onb-C-2": "gen random-onb --dim 2 --field C --seed 24",
    "random-onb-C-4": "gen random-onb --dim 4 --field C --seed 25",
    "random-onb-C-7": "gen random-onb --dim 7 --field C --seed 26",
    "random-parseval-R": "gen random-parseval --dim 3 --n 5 --field R "
                         "--seed 27",
    "random-parseval-C": "gen random-parseval --dim 4 --n 7 --field C "
                         "--seed 28",
    "convert-roundtrip": "gen random-parseval --dim 3 --n 6 --seed 29 "
                         "&& convert random-parseval.json --to povm "
                         "--out p.json "
                         "&& convert p.json --to frame --out f.json",
    "analyze-random-parseval": "gen random-parseval --dim 3 --n 6 --seed 30 "
                               "&& analyze random-parseval.json",
    "analyze-povm": "gen random-parseval --dim 3 --n 6 --seed 31 "
                    "&& convert random-parseval.json --to povm "
                    "--partition 0,1;2,3;4,5 --out p.json "
                    "&& analyze p.json",
    "analyze-povm-half-strict": "analyze half.json --strict",
    "analyze-povm-bad-effects": "analyze bad.json --strict",
    "analyze-quadratic-phase": "gen quadratic-phase --len 9 "
                               "&& analyze quadratic-phase.json",
    "convert-partition": "gen random-parseval --dim 2 --n 5 --seed 32 "
                         "&& convert random-parseval.json --to povm "
                         "--partition 0,1;;2,3,4 --out p.json",
    "convert-pad-zeros": "gen random-parseval --dim 3 --n 5 --seed 33 "
                         "&& convert random-parseval.json --to povm "
                         "--partition 0;1,2;3,4 --out p.json "
                         "&& convert p.json --to frame --pad-zeros "
                         "--out f.json",
    "spec-inline-json": "gleason verify-parseval --spec "
                        '{"kind":"quadratic","operator":[[1,0],[0,2]],'
                        '"const":0.25} --n 3 --trials 5 --seed 34',
    "spec-json-file": "gleason counterexample --spec spec.json --trials 5 "
                      "--samples 20 --seed 35",
    "gen-simplex": "gen simplex --dim 3",
    "gen-onb": "gen onb --dim 3 --field C",
    "gen-harmonic": "gen harmonic --dim 3 --n 7 --selector 1,2,4",
    "gen-quadratic-phase": "gen quadratic-phase --len 9",
}

# Input files written into the directory before a sweep entry runs;
# they are hashed with its outputs.
SWEEP_FILES = {
    "analyze-povm-half-strict": {
        "half.json": '{"dim": 2, "effects": [[[0.5, 0], [0, 0]], '
                     '[[0, 0], [0, 0.5]]], "partition": null}',
    },
    "analyze-povm-bad-effects": {
        "bad.json": '{"dim": 2, "effects": [[[2, 0], [0, 0]], '
                    '[[-1, 0], [0, 1]]], "partition": null}',
    },
    "spec-json-file": {"spec.json": '{"kind": "epsilon1d", "eps": 0.25}'},
}

SWEEP_SHA256 = {
    "analyze-povm":
        "1d971ddba04fec7afe09287727a0469cbd3344aa8ee634a128d00e235354a030",
    "analyze-povm-bad-effects":
        "dda6a0f8af2988d7d0c2675a4e7db38fa1a753587678a8df620e9420221b2ac1",
    "analyze-povm-half-strict":
        "0e766e7b75b9bfefd83064de14f738394cdb52d22192ab8bdccdeae27138dd32",
    "analyze-quadratic-phase":
        "6051d9764c33f32369dd6ce63a22f896e0dd423483459d8f27a5ad0ac3514142",
    "analyze-random-parseval":
        "c980529037dabc8e4940c343678eadcf7d4eddd6b017e36d6c904c9d004d5faa",
    "bjorck-23":
        "82d4745e49f684e18e63f67b7cfbc929e9996fab4fb7eb536e08ca1b7cacc925",
    "bjorck-67":
        "63e1b6fe518d2a536f192108cfbf71e088293603d54e0c9b0407d618752f96d1",
    "born":
        "b1937abfac11b85920fc92e3ed231ae637a1c11415e82249b6c1508491c90db5",
    "busch":
        "dc0cb1305e1830c3b7cce0469a854547ac81e3e56acd988bae6a074e4f6404b3",
    "cazac-ambiguity-23":
        "74cf1800c3641460db18ba3b15dde0bc9589345b1d0bb8bdbc26c128a903dee7",
    "cazac-ambiguity-67":
        "3b3bc2920abbdcc434330f0ea9d875d427c1ea428f6ac65256f310bc0a758bfc",
    "cazac-gabor-23":
        "b6802f7e34b3bbb59820420c7ebe5d8f79963326dbbe87fc260548a73bfd6cb7",
    "cazac-gabor-67":
        "563ea7eda9d160e4783e8735c9f8340047ef9bf9f63ad096dbf303544b25033e",
    "cazac-test-23":
        "7e4b4d48dba2ef81b515d61f8cb989bc522ba99cf9ce1a3da558424f1685e994",
    "cazac-test-67":
        "359984b6498254c761ffbd032fc268f295b97be425d7d58995044be533f826b5",
    "ce-cos6":
        "a52d18313723917813365bd10e00731c6fbdfbe17e7b70f101cd3743d5e8ea38",
    "ce-epsilon1d":
        "f379d6063166b1b374ed8bb9b40cdb4519917e34b838f26ae4785f4b576dc47b",
    "ce-expnorm":
        "2b61aafe5c50a6c35afca7783498b76198802870dd928f84738d41b07e8b1604",
    "convert-pad-zeros":
        "1579360d6bbaeac4970e6a6a0955ac606c9dace26ae5a1b7ec59fa5561d4d106",
    "convert-partition":
        "48f785eeeb68023aefdfe346fb5f2414bc51fe68b7b78ce71a1c47a8e378ed28",
    "convert-roundtrip":
        "027b0bc3e58c9a22a4fc7211879b6ae666a2faff0985fb26404bc4d89d79509e",
    "fit-cos6":
        "2bb5e76e2f337f7c4667b2cfef8176cdd030361a2ebb09b3478b12fe568efc1f",
    "fit-quadratic-C":
        "712c35775edb5e1b26b5c16d1752a4cc6c349a62d233f60c19572bfb1daf035b",
    "gen-harmonic":
        "51ae10dbbfcd1f1597299e68a2f2f1cab2b9dd4085b6c7edde8d855a1509ff61",
    "gen-onb":
        "e6e8eb31cd4ed284e9aeb213d71db12917bb2f662e8a41fef67e85c90d879445",
    "gen-quadratic-phase":
        "bbfa7190007cf3ade1f3e4fbbf025a18883ca8ba38b95d7341185dcef4920353",
    "gen-simplex":
        "3eca80ff5559ddb36707aae58ee535085739acc199c6a3193c219ac92df72d0a",
    "ladder-quadratic":
        "0f8b8b4ce724f81cd438af2352b9d5922a42bc5f6879d2a251af2c35f4747cee",
    "onb-indicator":
        "237939d5d39c0074edd9c80610f1eaa20a98bbc435ff402bc1fd79eb23696afa",
    "onb-quadratic-C":
        "9f8532c943cf0fb1c5b2e2f66d34eecd0d5121bf1523a357af6dcaebe6c85dac",
    "parseval-expnorm":
        "7548ef3abc322c7c94115b883efaf4aa6d1e6fe3096b2ef36c656b3bac89bcca",
    "parseval-quadratic-R":
        "0ee9d7600741f83d8a6cf269bdab1343ccc24059e153578d9e18b564b6032144",
    "random-onb-C-2":
        "1b246dca70c2d86929435ff3873c8bc6c237ca28468cefd646392e71e321e663",
    "random-onb-C-4":
        "d2672fbd906bc8f02d7efd68ef96b017109d51a64c9ed08b3455e551be5f9b11",
    "random-onb-C-7":
        "fd99d93582dfa3fd6ca06f76532d5efbae7013ea70eadffba3ac09b7df471006",
    "random-onb-R-2":
        "ddcc475bd0826ab48bcbad34ea3762eb96a1e045ea72b9da66f0655e8bd43138",
    "random-onb-R-4":
        "77b5c6f6a4bfede7a9b9998f00804bff2b9b944d9da84b515ca309050c137247",
    "random-onb-R-7":
        "3c15597cd51aacfaca5fbd9e3adceb26c4844cc78711076fb44cbbdaf954b625",
    "random-parseval-C":
        "823b65610267e00868453dafbf71979d0bf007bcedfc90fa85ffdb3affc1e4dc",
    "random-parseval-R":
        "d441bcea10d1b7a71a3eb033c575960cece3539a1b6aaf383aae1010b6a6e065",
    "spec-inline-json":
        "e56597b26021ea5654e51150e4b8abc140156098ad41d228f7802085a6a81514",
    "spec-json-file":
        "e45caf77ce81051f67f542386e0f206265d3047dca891fa2218e00d7023d32b1",
    "weight-trace":
        "733b682914c5856b706c2ffbc7724b6f8fdcce37409d0d99b7caa3ea8420d2d2",
}


@pytest.mark.parametrize("name", sorted(SWEEP))
def test_cli_byte_sweep(name, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("FRAMELAB_TOL", raising=False)
    monkeypatch.chdir(tmp_path)
    for filename, content in SWEEP_FILES.get(name, {}).items():
        (tmp_path / filename).write_text(content)
    text = ""
    for command in SWEEP[name].split(" && "):
        code = cli.main(command.split())
        text += f"{code}\n{capsys.readouterr().out}"
    for path in sorted(tmp_path.iterdir()):
        text += f"{path.name}\n{path.read_text()}"
    digest = hashlib.sha256(text.encode()).hexdigest()
    # On a mismatch, show the text itself: a re-pin is reviewed by it.
    assert digest == SWEEP_SHA256[name], (
        f"{len(text)} characters hashed, of which the first 2,000:\n"
        f"{text[:2000]}")
