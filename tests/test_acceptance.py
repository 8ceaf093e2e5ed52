"""Acceptance battery.

Each test covers one acceptance criterion end to end at its stated
tolerance and prints a single machine-greppable verdict line.  The
criteria are intentionally heavier than the unit tests, sweeping
dimensions and field choices across many seeds, and two of them carry
explicit wall-clock budgets.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

import framelab as fl
from framelab import SplitMix64
from subprocess_env import subprocess_env


def verdict(num, name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {name}: {detail}")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def test_criterion_01_frame_sums_of_quadratic_forms_match_the_trace():
    start = time.perf_counter()
    rng = SplitMix64(1001)
    worst = 0.0
    dims = range(2, 7)
    trial = 0
    while trial < 1000:
        for d in dims:
            for n in range(d, d + 7):
                if trial >= 1000:
                    break
                field = "C" if trial % 2 else "R"
                a = fl.random_hermitian(d, seed=rng.u64(), field=field)
                f = fl.random_parseval(d, n, seed=rng.u64(), field=field)
                x = f.vectors
                total = float(np.einsum("nd,de,ne->", x.conj(), a, x).real)
                dev = abs(total - float(np.trace(a).real))
                worst = max(worst, dev)
                trial += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 10.0
    verdict(
        1, "frame sums of quadratic forms match the trace", ok,
        f"1000 trials, max deviation {worst:.3e}, {elapsed:.2f}s",
    )


def test_criterion_02_canonical_tightening_yields_unit_bounds():
    rng = SplitMix64(1002)
    worst = 0.0
    for i in range(200):
        d = 2 + i % 5
        n = d + (i // 5) % 5
        field = "C" if i % 2 else "R"
        sample = (
            rng.complex_gaussians((n, d)) if field == "C"
            else rng.gaussians((n, d))
        )
        f = fl.canonical_parseval(fl.Frame(sample, field))
        lo, hi = fl.frame_bounds(f)
        worst = max(worst, abs(lo - 1.0), abs(hi - 1.0))
    ok = worst <= 1e-10
    verdict(
        2, "canonical tightening yields unit bounds", ok,
        f"200 frames, max bound deviation {worst:.3e}",
    )


def test_criterion_03_measurement_roundtrip_preserves_structure():
    rng = SplitMix64(1003)
    worst_parseval = 0.0
    worst_sum = 0.0
    worst_effect = 0.0
    for i in range(100):
        d = 2 + i % 4
        n = d + 1 + i % 3
        field = "C" if i % 2 else "R"
        f = fl.random_parseval(d, n, seed=rng.u64(), field=field)

        flat = fl.povm_from_frame(f)
        total = np.sum(flat.effects, axis=0)
        worst_sum = max(worst_sum, float(np.max(np.abs(total - np.eye(d)))))
        back = fl.frame_from_povm(flat)
        s = fl.frame_operator(back.frame)
        worst_parseval = max(worst_parseval, float(np.max(np.abs(s - np.eye(d)))))

        cut = 1 + i % (n - 1)
        partition = [list(range(cut)), list(range(cut, n))]
        grouped = fl.povm_from_frame_grouped(f, partition)
        again = fl.frame_from_povm(grouped)
        regrouped = fl.povm_from_frame_grouped(again.frame, again.partition)
        worst_effect = max(
            worst_effect,
            float(np.max(np.abs(regrouped.effects - grouped.effects))),
        )
    ok = worst_parseval <= 1e-10 and worst_sum <= 1e-10 and worst_effect <= 1e-9
    verdict(
        3, "measurement roundtrip preserves structure", ok,
        f"100 cases, parseval {worst_parseval:.3e}, "
        f"sum {worst_sum:.3e}, effects {worst_effect:.3e}",
    )


def test_criterion_04_simplex_frames_meet_the_coherence_floor():
    worst = 0.0
    for d in range(2, 9):
        f = fl.simplex_etf(d)
        coh = fl.coherence(f)
        floor = fl.welch_bound(d + 1, d)
        equi, angle = fl.is_equiangular(f)
        if not equi:
            verdict(4, "simplex frames meet the coherence floor", False,
                    f"d={d} not equiangular")
        worst = max(
            worst,
            abs(coh - floor),
            abs(angle - 1.0 / d),
            abs(coh - 1.0 / d),
        )
    ok = worst <= 1e-12
    verdict(
        4, "simplex frames meet the coherence floor", ok,
        f"d=2..8, max deviation {worst:.3e}",
    )


def test_criterion_05_harmonic_frames_are_parseval_with_equal_norms():
    worst_parseval = 0.0
    worst_norm = 0.0
    for d, n in ((2, 3), (2, 5), (3, 7), (4, 9)):
        f = fl.harmonic_frame(d, n)
        s = fl.frame_operator(f)
        worst_parseval = max(worst_parseval, float(np.max(np.abs(s - np.eye(d)))))
        worst_norm = max(
            worst_norm, float(np.max(np.abs(f.norms() - math.sqrt(d / n))))
        )
    ok = worst_parseval <= 1e-10 and worst_norm <= 1e-12
    verdict(
        5, "harmonic frames are parseval with equal norms", ok,
        f"4 shapes, parseval {worst_parseval:.3e}, norms {worst_norm:.3e}",
    )


def test_criterion_06_quadratic_recovery_separates_the_cosine_family():
    fit = fl.fit_quadratic(fl.cos_counterexample(2), samples=400, seed=6)
    ok_quad = (
        fit.verdict == "quadratic"
        and fit.residual <= 1e-9
        and np.max(np.abs(np.asarray(fit.operator) - np.diag([2.0, 0.0]))) <= 1e-9
    )
    residuals = []
    for n in (6, 10, -6):
        r = fl.fit_quadratic(fl.cos_counterexample(n), samples=400, seed=6)
        residuals.append(r.residual)
    ok_reject = all(r >= 0.1 for r in residuals)

    # grid oracle for the zero counter
    points = 1_000_000
    t = np.linspace(0.0, 2.0 * math.pi, points, endpoint=False)
    cos2t = np.cos(2.0 * t)
    sin2t = np.sin(2.0 * t)
    rng = SplitMix64(1006)
    mismatches = 0
    for _ in range(1000):
        a, b, c = rng.gaussians(3).tolist()
        predicted = fl.quadratic_zero_count_s1(np.array([[a, b], [b, c]]))
        values = (a + c) / 2.0 + ((a - c) / 2.0) * cos2t + b * sin2t
        s = np.signbit(values)
        flips = int(np.count_nonzero(s[1:] != s[:-1])) + int(s[0] != s[-1])
        if predicted != flips:
            mismatches += 1
    ok = ok_quad and ok_reject and mismatches == 0
    verdict(
        6, "quadratic recovery separates the cosine family", ok,
        f"recovery residual {fit.residual:.3e}, reject residuals "
        f"{min(residuals):.2f}+, grid mismatches {mismatches}/1000",
    )


def test_criterion_07_weight_laws_split_bases_from_larger_frames():
    worst_onb = 0.0
    for d in (2, 3):
        g = fl.expnorm_gleason(d)
        rep = fl.verify_onb_gleason(g, trials=60, seed=d)
        if not rep.passed:
            verdict(7, "weight laws split bases from larger frames", False,
                    f"exp-norm failed over bases in dim {d}")
        worst_onb = max(
            worst_onb,
            abs(complex(rep.mean_weight).real - d * (math.e - 1.0)),
            rep.max_deviation,
        )
    ok_onb = worst_onb <= 1e-12

    gaps = []
    for d in (2, 3):
        g = fl.expnorm_gleason(d)
        rep = fl.verify_parseval_gleason(g, d + 1, trials=40, seed=d)
        if rep.passed:
            verdict(7, "weight laws split bases from larger frames", False,
                    f"exp-norm wrongly passed over {d + 1}-vector frames")
        gaps.append(
            complex(rep.witness_high[1]).real - complex(rep.witness_low[1]).real
        )
    ok_gap = all(gap >= 0.1 for gap in gaps)

    eps = 0.2
    g = fl.epsilon_1d_counterexample(eps)
    rep = fl.verify_parseval_gleason(g, 2, trials=10_000, seed=7)
    ok_eps = (
        rep.passed
        and abs(complex(rep.mean_weight).real - 1.0) <= 1e-12
        and rep.max_deviation <= 1e-12
    )
    entries = [math.sqrt(eps), math.sqrt(eps), math.sqrt(1.0 - 2.0 * eps)]
    triple = sum(float(g(np.array([v]))) for v in entries)
    ok_triple = abs(triple - 2.2) <= 1e-12 and abs(triple - (3 - 4 * eps)) <= 1e-12
    ok = ok_onb and ok_gap and ok_eps and ok_triple
    verdict(
        7, "weight laws split bases from larger frames", ok,
        f"basis deviation {worst_onb:.3e}, witness gap {min(gaps):.2f}, "
        f"swap family weight dev {rep.max_deviation:.3e}, triple sum {triple}",
    )


def test_criterion_08_weight_ladder_steps_by_the_value_at_zero():
    const = 0.37
    worst = 0.0
    for d in (2, 3):
        a = fl.random_hermitian(d, seed=80 + d)
        g = fl.quadratic_gleason(a, const=const)
        rep = fl.degree_ladder_experiment(g, d + 2, d + 6, trials=25, seed=d)
        if not (all(rep.passed) and rep.increments_ok):
            verdict(8, "weight ladder steps by the value at zero", False,
                    f"dim {d} ladder failed")
        worst = max(worst, max(abs(inc - const) for inc in rep.increments))
    ok = worst <= 1e-9
    verdict(
        8, "weight ladder steps by the value at zero", ok,
        f"dims 2..3, sizes up to d+6, max step error {worst:.3e}",
    )


def test_criterion_09_trace_measures_pass_and_born_rule_normalizes():
    rng = SplitMix64(1009)
    worst = 0.0
    for i in range(50):
        d = 2 + i % 2
        rho = fl.random_density(d, seed=rng.u64())
        rep = fl.check_generalized_measure(
            lambda e, r=rho: float(np.trace(r @ e).real),
            d,
            n_family=d + 2,
            trials=6,
            seed=rng.u64(),
        )
        if not rep.passed:
            verdict(9, "trace measures pass and born rule normalizes", False,
                    f"state {i} failed the measure check")
        worst = max(worst, rep.additivity_deviation, rep.identity_deviation)
    ok_measure = worst <= 1e-9

    min_prob = math.inf
    worst_sum = 0.0
    for i in range(500):
        d = 2 + i % 3
        n = d + 1 + i % 3
        rho = fl.random_density(d, seed=rng.u64())
        f = fl.random_parseval(d, n, seed=rng.u64())
        if i % 2:
            cut = 1 + i % (n - 1)
            p = fl.povm_from_frame_grouped(
                f, [list(range(cut)), list(range(cut, n))]
            )
        else:
            p = fl.povm_from_frame(f)
        probs = fl.born_probabilities(rho, p)
        min_prob = min(min_prob, float(np.min(probs)))
        worst_sum = max(worst_sum, abs(float(np.sum(probs)) - 1.0))
    ok_born = min_prob >= -1e-10 and worst_sum <= 1e-10
    ok = ok_measure and ok_born
    verdict(
        9, "trace measures pass and born rule normalizes", ok,
        f"50 states dev {worst:.3e}; 500 pairs min prob {min_prob:.1e}, "
        f"sum dev {worst_sum:.3e}",
    )


def test_criterion_10_flat_correlation_sequences_and_their_gabor_frames():
    start = time.perf_counter()
    details = []
    ok = True
    for p in (5, 7, 11, 13, 17, 19, 23, 29):
        u = fl.bjorck(p)
        rep = fl.is_cazac(u)
        table = fl.ambiguity(u)
        mags = table.magnitudes()
        mags_off = mags.copy()
        mags_off[0, 0] = 0.0
        peak = float(np.max(mags_off))
        bound = fl.bjorck_peak_bound(p)
        f = fl.gabor_frame(u)
        s = fl.frame_operator(f)
        tight_dev = float(np.max(np.abs(s - p * np.eye(p))))
        coh = fl.coherence(f)
        case_ok = (
            rep.ca_deviation <= 1e-15
            and rep.zac_peak <= 1e-10
            and peak <= bound
            and peak <= 3.0 / math.sqrt(p)
            and tight_dev <= 1e-9
            and 1.0 / math.sqrt(p + 1) <= coh <= 3.0 / math.sqrt(p)
        )
        ok = ok and case_ok
        details.append(f"p={p} peak {peak:.3f}<={bound:.3f}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    verdict(
        10, "flat correlation sequences and their gabor frames", ok,
        f"8 prime lengths, {elapsed:.2f}s; " + ", ".join(details[:3]) + ", ...",
    )


def run_cli(args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "framelab", *args],
        cwd=cwd,
        env=subprocess_env({}),
        capture_output=True,
        text=True,
    )


CLI_BATTERY = [
    (["gen", "simplex", "--dim", "3", "--out", "simplex.json"], "simplex.json"),
    (["gen", "onb", "--dim", "4", "--out", "onb.json"], "onb.json"),
    (
        ["gen", "random-onb", "--dim", "3", "--seed", "0", "--out", "ronb.json"],
        "ronb.json",
    ),
    (
        ["gen", "random-parseval", "--dim", "2", "--n", "5", "--seed", "0",
         "--out", "rp.json"],
        "rp.json",
    ),
    (
        ["gen", "harmonic", "--dim", "2", "--n", "5", "--sel", "1,2",
         "--out", "harm.json"],
        "harm.json",
    ),
    (["gen", "bjorck", "--p", "13", "--out", "bj.json"], "bj.json"),
    (
        ["gen", "quadratic-phase", "--len", "9", "--out", "qp.json"],
        "qp.json",
    ),
    (["analyze", "harm.json", "--out", "rep_frame.json"], "rep_frame.json"),
    (["analyze", "bj.json", "--out", "rep_seq.json"], "rep_seq.json"),
    (
        ["convert", "rp.json", "--to", "povm", "--partition", "0,1;2,3,4",
         "--out", "povm.json"],
        "povm.json",
    ),
    (
        ["convert", "povm.json", "--to", "frame", "--out", "back.json"],
        "back.json",
    ),
    (["analyze", "povm.json", "--out", "rep_povm.json"], "rep_povm.json"),
    (
        ["gleason", "verify-onb", "--spec", "cos2d:6", "--trials", "20",
         "--seed", "0", "--out", "g_onb.json"],
        "g_onb.json",
    ),
    (
        ["gleason", "verify-parseval", "--spec", "expnorm", "--dim", "2",
         "--n", "3", "--trials", "20", "--seed", "0", "--out", "g_par.json"],
        "g_par.json",
    ),
    (
        ["gleason", "fit", "--spec", "cos2d:2", "--samples", "150",
         "--seed", "0", "--out", "g_fit.json"],
        "g_fit.json",
    ),
    (
        ["gleason", "ladder", "--spec", "quadratic", "--dim", "2",
         "--const", "0.5", "--n0", "4", "--n1", "6", "--trials", "10",
         "--seed", "0", "--out", "g_lad.json"],
        "g_lad.json",
    ),
    (
        ["gleason", "counterexample", "--spec", "epsilon1d:0.2",
         "--trials", "10", "--samples", "50", "--seed", "0",
         "--out", "g_ce.json"],
        "g_ce.json",
    ),
    (["cazac", "test", "bj.json", "--out", "cz_test.json"], "cz_test.json"),
    (["cazac", "ambiguity", "qp.json", "--out", "amb.csv"], "amb.csv"),
    (["cazac", "gabor", "qp.json", "--out", "gabor.json"], "gabor.json"),
    (
        ["experiment", "weight-trace", "--trials", "5", "--seed", "0",
         "--out", "x_wt.json"],
        "x_wt.json",
    ),
    (
        ["experiment", "busch", "--dim", "2", "--states", "3", "--trials", "3",
         "--seed", "0", "--out", "x_busch.json"],
        "x_busch.json",
    ),
    (
        ["experiment", "born", "--dim", "2", "--trials", "5", "--seed", "0",
         "--out", "x_born.json"],
        "x_born.json",
    ),
]


def test_criterion_11_every_subcommand_is_byte_deterministic(tmp_path):
    outputs = {}
    for run in ("run1", "run2"):
        base = tmp_path / run
        base.mkdir()
        for args, out_name in CLI_BATTERY:
            r = run_cli(args, base)
            if r.returncode != 0:
                verdict(
                    11, "every subcommand is byte deterministic", False,
                    f"{' '.join(args)} exited {r.returncode}: {r.stderr.strip()}",
                )
            outputs.setdefault(out_name, {})[run] = (
                (base / out_name).read_bytes(),
                r.stdout,
            )
    diffs = [
        name for name, runs in outputs.items()
        if runs["run1"] != runs["run2"]
    ]
    ok = not diffs
    verdict(
        11, "every subcommand is byte deterministic", ok,
        f"{len(CLI_BATTERY)} subcommands, repeat diffs: {diffs or 'none'}",
    )
