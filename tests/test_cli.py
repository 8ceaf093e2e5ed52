"""End-to-end command-line checks run through subprocess."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import framelab as fl


def run_cli(args, cwd, env_extra=None):
    env = dict(os.environ)
    env.pop("FRAMELAB_TOL", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "framelab", *args],
        cwd=cwd,
        env=env,
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

    r = run_cli(["gleason", "fit", "--spec", "no-such-kind"], tmp_path)
    assert r.returncode == 2


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
    r = run_cli(
        ["experiment", "born", "--dim", "2", "--trials", "5", "--seed", "0",
         "--out", "born.json"],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    on_disk = (tmp_path / "born.json").read_text()
    assert on_disk == r.stdout.splitlines()[0] + "\n"
