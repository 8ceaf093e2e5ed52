"""Tests of the benchmark itself: tracing, checks and the result contract.

Run from the repository root with ``python3 -m pytest perfbench``.
The job lists here are small cuts of each workload so the file runs in
a few seconds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import framelab as fl  # noqa: E402
import framelab.gleason  # noqa: E402
import framelab.povm  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402

# Layers each workload must reach, and layers it must bypass, as the
# README's predictions state.
REACHES = {
    "verify-small": ("rng", "linalg", "frames", "povm", "gleason"),
    "gabor-sweep": ("linalg", "frames", "waveforms", "serialize"),
    "povm-roundtrip": ("rng", "linalg", "frames", "povm", "serialize", "cli"),
}
BYPASSES = {
    "verify-small": ("waveforms", "serialize", "cli"),
    "gabor-sweep": ("rng", "gleason", "cli"),
    "povm-roundtrip": ("waveforms", "gleason"),
}


def small_jobs(workload):
    if workload == "gabor-sweep":
        return [wl.Job("gabor", {"p": 13}), wl.Job("gabor", {"p": 17})]
    jobs = wl.round_jobs(workload, 5, 1)
    if workload == "povm-roundtrip":
        jobs = [j for j in jobs if j.params["d"] <= 8]
    return jobs


def run_jobs(workload, jobs, workdir, tracer=None):
    loop = wl.Loop(workload, str(workdir), tracer)
    for job in jobs:
        loop.run(job)
    assert loop.failed == 0
    return loop


def traced(workload, jobs, workdir):
    tr = tracing.Tracer()
    tr.install()
    try:
        loop = run_jobs(workload, jobs, workdir, tr)
    finally:
        tr.uninstall()
    return tr, loop


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_tracing_changes_no_output_byte(workload, tmp_path):
    jobs = small_jobs(workload)
    plain = run_jobs(workload, jobs, tmp_path)
    _, loop = traced(workload, jobs, tmp_path)
    assert None not in plain.digests
    assert loop.digests == plain.digests


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_each_layer_records_spans_on_its_workload(workload, tmp_path):
    tr, _ = traced(workload, small_jobs(workload), tmp_path)
    metrics = tr.layer_metrics()
    for layer in REACHES[workload]:
        assert metrics[f"{layer}.calls"] > 0, layer
        assert metrics[f"{layer}.self_s"] > 0.0, layer
    for layer in BYPASSES[workload]:
        assert metrics[f"{layer}.calls"] == 0, layer
    spans = {tr.keys[rec[0]] for rec in tr.spans}
    expected = {
        "verify-small": {("rng", "complex_gaussians"), ("gleason", "__call__"),
                         ("povm", "povm_from_frame_grouped")},
        "gabor-sweep": {("waveforms", "ambiguity"), ("frames", "coherence"),
                        ("serialize", "canonical_json")},
        "povm-roundtrip": {("cli", "main"), ("povm", "is_effect"),
                           ("serialize", "parse_json")},
    }[workload]
    assert expected <= spans


def test_counts_repeat_exactly(tmp_path):
    jobs = small_jobs("povm-roundtrip")
    first = traced("povm-roundtrip", jobs, tmp_path)[0].layer_metrics()
    second = traced("povm-roundtrip", jobs, tmp_path)[0].layer_metrics()
    counts = {k: v for k, v in first.items() if not k.endswith("_s")}
    assert counts == {k: second[k] for k in counts}
    assert counts["serialize.bytes_in"] > 0 and counts["rng.variates"] > 0


def test_uninstall_restores_every_binding(tmp_path):
    before = (fl.random_parseval, framelab.povm.random_parseval,
              framelab.gleason.random_parseval, fl.SplitMix64.gaussians,
              fl.GleasonFn.__call__)
    tr = tracing.Tracer()
    tr.install()
    try:
        assert fl.random_parseval is not before[0]
        assert framelab.povm.random_parseval is fl.random_parseval
        assert framelab.gleason.random_parseval is fl.random_parseval
    finally:
        tr.uninstall()
    after = (fl.random_parseval, framelab.povm.random_parseval,
             framelab.gleason.random_parseval, fl.SplitMix64.gaussians,
             fl.GleasonFn.__call__)
    assert after == before


def test_check_rejects_a_wrong_verdict(tmp_path):
    job = wl.Job("fit-cos", {"n": 6, "seed": 0})
    out = wl.execute(job, str(tmp_path))
    assert wl.check(job, out) is None
    wrong = wl.Job("fit-cos", {"n": 2, "seed": 0})
    assert "verdict" in wl.check(wrong, out)


def test_rounds_repeat_for_a_seed():
    for workload in wl.WORKLOADS:
        assert wl.round_jobs(workload, 3, 2) == wl.round_jobs(workload, 3, 2)
        assert wl.round_jobs(workload, 3, 2) != wl.round_jobs(workload, 4, 2)


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_names_match(tmp_path):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    names = {m["name"] for m in spec["per_layer"]}
    tr, _ = traced("gabor-sweep", small_jobs("gabor-sweep"), tmp_path)
    assert names == set(tr.layer_metrics()) | {"trace.overhead_ratio"}
