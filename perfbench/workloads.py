"""The benchmark's three workloads: job generation, execution and checks.

Each workload is a closed loop with one client.  Jobs are generated in
rounds from ``random.Random(seed)``; a round holds a fixed mix of job
kinds and sizes in a seeded order with seeded parameters, so every seed
runs the same mix and only the order and the random inputs differ.
framelab receives only the generated parameters and seeds.

Every job is a ``Job(kind, params)``.  ``execute`` runs it through
framelab's public functions and is the only code inside the timed
region.  ``check`` then compares the output against independent
oracles (``numpy.linalg.eigvalsh``, ``numpy.fft`` and stdlib ``json``,
none of which the library uses) and ``digest`` hashes its canonical
JSON bytes for the determinism check.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import time
from typing import NamedTuple

import numpy as np

import framelab as fl
import framelab.cli as fl_cli
import framelab.serialize as fl_serialize
from calibration import Calibrator

WORKLOADS = ("verify-small", "gabor-sweep", "povm-roundtrip")
# Calibrated with the memory kernel added to the CPU kernel.
MEMORY_BOUND = ("gabor-sweep",)

# Gabor frames of length p have p*p vectors, so analyze_frame forms
# three (p*p) x (p*p) complex Gram matrices of 16 * p**4 bytes.  The
# small primes (13, 17, 19) stay within a 2-4 MiB L2, 23..47 sit
# between L2 and a ~100 MiB L3, and 53 and 67 exceed it.  67 is also
# above the length-64 cutoff where ambiguity() switches to Kahan
# summation.  Small primes repeat so that a run has enough jobs for a
# 90th percentile, and the counts put the median inside the block of
# 23s and the 90th percentile inside the block of 43s, so neither
# statistic sits on a jump between two primes' latencies.  59 and 61
# are left out because they would double the round time without
# reaching a new cache level.
GABOR_ROUND = (
    (13,) * 4 + (17,) * 4 + (19,) * 4 + (23,) * 10 + (29,) * 2 + (31,) * 2
    + (37, 41, 43, 43, 43, 47, 53, 67)
)

VERIFY_DIMS = (2, 3, 4)
COS_INDICES = (2, 6, 10)
POVM_DIMS = tuple(range(6, 21))

# Oracle tolerances, far above double rounding at these sizes and far
# below any real defect.
TOL = 1e-9


class Job(NamedTuple):
    kind: str
    params: dict


def _seed(rng: random.Random) -> int:
    return rng.getrandbits(32)


def _verify_small_round(rng: random.Random) -> list[Job]:
    jobs = []
    for d in VERIFY_DIMS:
        jobs.append(Job("parseval-quadratic", {
            "d": d, "n": d + rng.randrange(4), "seed_a": _seed(rng),
            "seed": _seed(rng)}))
        jobs.append(Job("parseval-expnorm", {
            "d": d, "n": d + 1 + rng.randrange(3), "seed": _seed(rng)}))
        jobs.append(Job("onb-quadratic", {
            "d": d, "seed_a": _seed(rng), "seed": _seed(rng)}))
        jobs.append(Job("measure-trace", {
            "d": d, "n_family": d + 2 + rng.randrange(2),
            "seed_rho": _seed(rng), "seed": _seed(rng)}))
    for n in COS_INDICES:
        jobs.append(Job("fit-cos", {"n": n, "seed": _seed(rng)}))
    rng.shuffle(jobs)
    return jobs


def _gabor_round(rng: random.Random) -> list[Job]:
    primes = list(GABOR_ROUND)
    rng.shuffle(primes)
    return [Job("gabor", {"p": p}) for p in primes]


def _povm_round(rng: random.Random) -> list[Job]:
    jobs = []
    for d in POVM_DIMS:
        # Fixed n and two or three effects by parity of d, so that every
        # seed does the same eigendecompositions at each dimension.
        n = d + 2
        k = 2 + d % 2
        order = list(range(n))
        rng.shuffle(order)
        groups = [sorted(order[j::k]) for j in range(k)]
        jobs.append(Job("povm", {
            "d": d, "n": n, "groups": groups,
            "seed_frame": _seed(rng), "seed_rho": _seed(rng)}))
    rng.shuffle(jobs)
    return jobs


_ROUNDS = {
    "verify-small": _verify_small_round,
    "gabor-sweep": _gabor_round,
    "povm-roundtrip": _povm_round,
}


def rounds(workload: str, seed: int):
    """Endless stream of job rounds; the same seed gives the same stream."""
    make = _ROUNDS[workload]
    rng = random.Random(seed)
    while True:
        yield make(rng)


def round_jobs(workload: str, seed: int, count: int) -> list[Job]:
    """The jobs of the first ``count`` rounds, flattened."""
    stream = rounds(workload, seed)
    return [job for _ in range(count) for job in next(stream)]


# ---------------------------------------------------------------------------
# execution: everything here is inside the timed region


def _trace_rule(rho: np.ndarray):
    return lambda e: float(np.trace(rho @ e).real)


def _execute_verify(job: Job):
    p = job.params
    kind = job.kind
    if kind == "parseval-quadratic":
        a = fl.random_hermitian(p["d"], seed=p["seed_a"], field="C")
        g = fl.quadratic_gleason(a)
        return a, fl.verify_parseval_gleason(g, p["n"], trials=6, seed=p["seed"])
    if kind == "parseval-expnorm":
        g = fl.expnorm_gleason(p["d"], field="C")
        return None, fl.verify_parseval_gleason(g, p["n"], trials=6, seed=p["seed"])
    if kind == "onb-quadratic":
        a = fl.random_hermitian(p["d"], seed=p["seed_a"], field="R")
        g = fl.quadratic_gleason(a)
        return a, fl.verify_onb_gleason(g, trials=12, seed=p["seed"])
    if kind == "measure-trace":
        rho = fl.random_density(p["d"], seed=p["seed_rho"])
        return rho, fl.check_generalized_measure(
            _trace_rule(rho), p["d"], p["n_family"], trials=4, seed=p["seed"])
    if kind == "fit-cos":
        g = fl.cos_counterexample(p["n"])
        return None, fl.fit_quadratic(g, samples=64, seed=p["seed"])
    raise ValueError(f"unknown job kind {kind!r}")


def _execute_gabor(job: Job):
    u = fl.bjorck(job.params["p"])
    cazac = fl.is_cazac(u)
    table = fl.ambiguity(u)
    frame = fl.gabor_frame(u)
    report = fl.analyze_frame(frame)
    text = fl.canonical_json(fl.frame_to_json(frame))
    return {"u": u, "cazac": cazac, "table": table, "frame": frame,
            "report": report, "text": text}


def _execute_povm(job: Job, workdir: str):
    p = job.params
    frame = fl.random_parseval(p["d"], p["n"], seed=p["seed_frame"])
    povm = fl.povm_from_frame_grouped(frame, p["groups"])
    povm_path = os.path.join(workdir, "povm.json")
    frame_path = os.path.join(workdir, "frame.json")
    fl.write_json(povm_path, fl.povm_to_json(povm))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = fl_cli.main(["convert", povm_path, "--to", "frame",
                          "--out", frame_path])
    rho = fl.random_density(p["d"], seed=p["seed_rho"])
    probs = fl.born_probabilities(rho, povm)
    return {"povm": povm, "rc": rc, "stdout": out.getvalue(), "rho": rho,
            "probs": probs, "povm_path": povm_path, "frame_path": frame_path}


def execute(job: Job, workdir: str):
    if job.kind == "gabor":
        return _execute_gabor(job)
    if job.kind == "povm":
        return _execute_povm(job, workdir)
    return _execute_verify(job)


# ---------------------------------------------------------------------------
# oracle checks: outside the timed region


def _close(a, b, tol: float = TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def _parseval_error(vectors: np.ndarray) -> float:
    """Largest distance of a frame-operator eigenvalue from 1."""
    x = np.asarray(vectors, dtype=np.complex128)
    values = np.linalg.eigvalsh(x.T @ x.conj())
    return float(np.max(np.abs(values - 1.0)))


def _check_verify(job: Job, out) -> str | None:
    arg, rep = out
    kind = job.kind
    if kind == "fit-cos":
        want = "quadratic" if abs(job.params["n"]) == 2 else "not_quadratic"
        if rep.verdict != want:
            return f"verdict {rep.verdict!r}, expected {want!r}"
        if not _close(complex(rep.weight).real, 2.0):
            return f"weight {rep.weight} of 1 + cos(n t) is not 2"
        if want == "quadratic":
            values = np.linalg.eigvalsh(np.asarray(rep.operator))
            if not np.allclose(values, [0.0, 2.0], atol=TOL):
                return f"fitted operator spectrum {values} is not (0, 2)"
        return None
    if kind == "measure-trace":
        if not rep.passed:
            return "the trace rule failed the probability axioms"
        if rep.identity_deviation > TOL or rep.additivity_deviation > TOL:
            return "trace rule deviates on identity or additivity"
        if rep.range_min < -TOL or rep.range_max > 1.0 + TOL:
            return "trace rule left [0, 1]"
        return None

    for frame, _ in (rep.witness_low, rep.witness_high):
        err = _parseval_error(frame.vectors)
        if err > TOL:
            return f"witness frame is not Parseval (eigvalsh error {err:.3e})"
    if kind == "parseval-expnorm":
        # exp(|x|^2) - 1 sums to d (e - 1) over bases but not over
        # larger Parseval frames, so the verdict must be negative.
        return "expnorm passed over frames larger than a basis" if rep.passed else None
    if not rep.passed:
        return "quadratic form failed the frame-function test"
    want = float(np.trace(arg).real)
    if not _close(complex(rep.mean_weight).real, want):
        return f"weight {rep.mean_weight} differs from trace(A) = {want}"
    return None


def _check_gabor(job: Job, out) -> str | None:
    p = job.params["p"]
    u = out["u"]
    if not out["cazac"].ok:
        return "bjorck sequence is not CAZAC"
    lags = np.array([np.roll(u, -m) * u.conj() for m in range(p)])
    oracle = np.fft.fft(lags, axis=1) / p
    err = float(np.max(np.abs(out["table"].values - oracle)))
    if err > TOL:
        return f"ambiguity table differs from the FFT oracle by {err:.3e}"
    rep = out["report"]
    if not (_close(rep.lower_bound, p) and _close(rep.upper_bound, p)):
        return f"frame bounds ({rep.lower_bound}, {rep.upper_bound}) are not {p}"
    x = out["frame"].vectors
    values = np.linalg.eigvalsh(x.T @ x.conj())
    if not np.allclose(values, p, rtol=TOL, atol=0.0):
        return "eigvalsh frame bounds are not p"
    if not _close(values[0], rep.lower_bound) or not _close(values[-1], rep.upper_bound):
        return "frame bounds disagree with eigvalsh"
    peak = out["table"].peak_off_origin()
    if rep.coherence is None or not _close(rep.coherence, peak):
        return f"coherence {rep.coherence} is not the ambiguity peak {peak}"
    if peak > fl.bjorck_peak_bound(p):
        return f"ambiguity peak {peak} exceeds the Bjorck bound"
    if not out["text"].startswith('{"dim":%d,"field":"C","vectors":[' % p):
        return "frame JSON has the wrong header"
    return None


def _complex_array(rows) -> np.ndarray:
    a = np.asarray(rows, dtype=np.float64)
    return a[..., 0] + 1j * a[..., 1]


def _check_povm(job: Job, out) -> str | None:
    if out["rc"] != 0 or not out["stdout"].startswith("frame n="):
        return f"convert exited {out['rc']}: {out['stdout']!r}"
    with open(out["povm_path"], encoding="utf-8") as fh:
        povm = json.load(fh)
    with open(out["frame_path"], encoding="utf-8") as fh:
        back = json.load(fh)
    effects = _complex_array(povm["effects"])
    if back["field"] == "R":
        vectors = np.asarray(back["vectors"], dtype=np.float64)
    else:
        vectors = _complex_array(back["vectors"])
    err = _parseval_error(vectors)
    if err > TOL:
        return f"recovered frame is not Parseval (eigvalsh error {err:.3e})"
    if len(back["partition"]) != len(effects):
        return "recovered partition has the wrong number of groups"
    for j, group in enumerate(back["partition"]):
        x = vectors[group].astype(np.complex128)
        regrouped = x.T @ x.conj()
        dev = float(np.max(np.abs(regrouped - effects[j])))
        if dev > TOL:
            return f"regrouped effect {j} differs from the input by {dev:.3e}"
    want = np.array([np.trace(out["rho"] @ e).real for e in effects])
    if not np.allclose(out["probs"], want, rtol=0.0, atol=TOL):
        return "Born probabilities differ from trace(rho E)"
    if abs(float(np.sum(out["probs"])) - 1.0) > TOL or np.min(out["probs"]) < -TOL:
        return "Born probabilities are not a distribution"
    return None


def check(job: Job, out) -> str | None:
    """None when the output passes every oracle, else what failed."""
    if job.kind == "gabor":
        return _check_gabor(job, out)
    if job.kind == "povm":
        return _check_povm(job, out)
    return _check_verify(job, out)


_REPORT_TO_JSON = {
    "fit-cos": fl_serialize.fit_result_to_json,
    "measure-trace": fl_serialize.measure_report_to_json,
}


def digest(job: Job, out) -> str:
    """SHA-256 of the job's canonical JSON output."""
    h = hashlib.sha256()
    if job.kind == "gabor":
        h.update(out["text"].encode())
        h.update(fl.canonical_json({
            "cazac": fl_serialize.cazac_report_to_json(out["cazac"]),
            "report": fl_serialize.frame_report_to_json(out["report"]),
        }).encode())
        h.update(fl_serialize.ambiguity_to_csv(out["table"]).encode())
    elif job.kind == "povm":
        for path in (out["povm_path"], out["frame_path"]):
            with open(path, "rb") as fh:
                h.update(fh.read())
        h.update(fl.canonical_json(out["probs"]).encode())
    else:
        to_json = _REPORT_TO_JSON.get(
            job.kind, fl_serialize.verification_report_to_json)
        h.update(fl.canonical_json(to_json(out[1])).encode())
    return h.hexdigest()


class Loop:
    """Runs jobs one at a time; times only ``execute``."""

    def __init__(self, workload: str, workdir: str, tracer=None):
        self.workdir = workdir
        self.tracer = tracer
        self.calibrator = Calibrator(workload in MEMORY_BOUND)
        self.marks: list[int] = []
        self.latencies: list[float] = []
        self.digests: list[str | None] = []
        self.failed = 0

    def run(self, job, keep_digest: bool = True) -> None:
        """Run, time and check one job; ``keep_digest`` also hashes its
        canonical output (the hash costs about as much as a small job)."""
        tracer = self.tracer
        out = err = None
        self.marks.append(self.calibrator.mark())
        if tracer is not None:
            tracer.job = len(self.latencies)
            tracer.recording = True
        t0 = time.perf_counter()
        try:
            out = execute(job, self.workdir)
        except Exception as exc:  # a raising job counts as failed
            err = f"raised {type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.recording = False
        sha = None
        if err is None:
            try:
                err = check(job, out)
                if keep_digest:
                    sha = digest(job, out)
            except Exception as exc:  # a check that cannot run is a failure
                err = f"check raised {type(exc).__name__}: {exc}"
        if err is not None:
            self.failed += 1
            print(f"job {len(self.latencies)} {job.kind} {job.params} failed: {err}",
                  file=sys.stderr)
        self.latencies.append(dt)
        self.digests.append(sha)
        self.calibrator.maybe_sample()

    def calibrated(self) -> list[float]:
        """Job latencies scaled to calibrated host speed."""
        factors = self.calibrator.factors(self.marks)
        return [lat * f for lat, f in zip(self.latencies, factors)]


def gram_bytes() -> dict[int, int]:
    """Computed size of one Gram matrix per gabor-sweep prime."""
    return {p: 16 * p ** 4 for p in sorted(set(GABOR_ROUND))}
