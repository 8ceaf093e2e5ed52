"""framelab benchmark: one closed-loop workload per invocation.

Run from the repository root:

    python3 perfbench/run.py --workload verify-small --seed 1 --seconds 25 --trace 0

``--trace 0`` times jobs in complete rounds until ``--seconds`` of job
time and at least 100 jobs have run, then prints the end-to-end
metrics.  ``--trace 1`` runs a fixed set of rounds twice, untraced and
then traced, and prints the per-layer metrics.  Either way every job
output is checked against oracles outside the timed region and the
last line of stdout is the JSON result.  See README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BLAS_THREADS = "1"
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench")

MIN_JOBS = 100
SETUP_SAMPLES = 9
# Rounds in the fixed job set of a traced run; sized so that each of
# its two passes takes roughly 5-15 s on a 2-core x86 VM.
TRACE_ROUNDS = {"verify-small": 60, "gabor-sweep": 1, "povm-roundtrip": 3}

# Times ``import framelab`` in a fresh interpreter, then the calibration
# kernel in the same process, so both see the same host speed.
_IMPORT_PROBE = (
    "import statistics, sys, time\n"
    "t = time.perf_counter()\n"
    "import framelab\n"
    "dt = time.perf_counter() - t\n"
    "if not framelab.__file__.startswith(sys.argv[1]):\n"
    "    sys.exit('imported framelab from ' + framelab.__file__)\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "from calibration import cpu_kernel\n"
    "print(dt, statistics.median(cpu_kernel() for _ in range(9)))\n"
)


def measure_setup() -> tuple[list[float], list[float]]:
    """``import framelab`` wall times in fresh interpreters, each paired
    with the calibration kernel time measured right after it."""
    env = dict(os.environ, PYTHONPATH=SRC)
    samples, kernels = [], []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, SRC, HERE],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"import framelab failed: {proc.stderr.strip()}")
        dt, k = proc.stdout.split()
        samples.append(float(dt))
        kernels.append(float(k))
    return samples, kernels


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def git_commit() -> str | None:
    head = _read(os.path.join(ROOT, ".git", "HEAD"))
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = _read(os.path.join(ROOT, ".git", ref))
    if loose:
        return loose
    for line in (_read(os.path.join(ROOT, ".git", "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def cache_sizes() -> dict:
    """L2 and last-level cache sizes of cpu0 as listed under /sys."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    sizes = {}
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return {"l2": None, "llc": None}
    for entry in entries:
        if not entry.startswith("index"):
            continue
        level = _read(os.path.join(base, entry, "level"))
        kind = _read(os.path.join(base, entry, "type"))
        size = _read(os.path.join(base, entry, "size"))
        if level and kind != "Instruction" and size:
            sizes[int(level)] = size
    return {"l2": sizes.get(2), "llc": sizes[max(sizes)] if sizes else None}


def blas_info(np) -> dict:
    info = {"threads_env": BLAS_THREADS, "threads": None, "version": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["version"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        pass
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                info["threads"] = fn()
                return info
    return info


def metadata(args, np, wl) -> dict:
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(np),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cache": cache_sizes(),
    }
    if args.workload == "gabor-sweep":
        meta["gram_bytes_computed"] = wl.gram_bytes()
    return meta


def timed_run(args, wl, workdir, meta) -> dict:
    loop = wl.Loop(args.workload, workdir)
    first = None
    round_sizes, round_ok = [], []
    for round_ in wl.rounds(args.workload, args.seed):
        failed = loop.failed
        for job in round_:
            # Only the first job's digest is needed, for the re-run below.
            loop.run(job, keep_digest=first is None)
            first = first or job
        round_sizes.append(len(round_))
        round_ok.append(len(round_) - (loop.failed - failed))
        if sum(loop.latencies) >= args.seconds and len(loop.latencies) >= MIN_JOBS:
            break
    # Determinism: the first job again must give the same bytes.
    again = wl.Loop(args.workload, workdir)
    again.run(first)
    if again.digests[0] is None or again.digests[0] != loop.digests[0]:
        print("determinism check failed on job 0", file=sys.stderr)
        if loop.digests[0] is not None:
            loop.failed += 1

    def summary(lat):
        bounds = [0] + list(itertools.accumulate(round_sizes))
        rates = [ok / sum(lat[a:b])
                 for ok, a, b in zip(round_ok, bounds, bounds[1:])]
        return {
            # Every round has the same mix of jobs, so the median of
            # per-round throughput discards rounds hit by a burst of load.
            "jobs_per_s": statistics.median(rates),
            "job_p50_ms": statistics.median(lat) * 1e3,
            "job_p90_ms": statistics.quantiles(lat, n=10, method="inclusive")[8] * 1e3,
        }

    units = {"jobs_per_s": "1/s", "job_p50_ms": "ms", "job_p90_ms": "ms"}
    meta["rounds"] = len(round_sizes)
    meta["raw"] = summary(loop.latencies)
    meta["kernel_samples"] = len(loop.calibrator.samples)
    calibrated = summary(loop.calibrated())
    return {
        "attempted": len(loop.latencies),
        "failed": loop.failed,
        "metrics": {name: (value, units[name]) for name, value in calibrated.items()},
    }


def traced_run(args, wl, workdir, meta) -> dict:
    import tracer as tracing
    jobs = wl.round_jobs(args.workload, args.seed, TRACE_ROUNDS[args.workload])
    plain = wl.Loop(args.workload, workdir)
    for job in jobs:
        plain.run(job)
    tr = tracing.Tracer()
    tr.install()
    try:
        traced = wl.Loop(args.workload, workdir, tr)
        for job in jobs:
            traced.run(job)
    finally:
        tr.uninstall()
    failed = max(plain.failed, traced.failed)
    # Tracing must not change a single output byte.
    diff = sum(a != b for a, b in zip(plain.digests, traced.digests))
    if diff:
        print(f"{diff} jobs changed output under tracing", file=sys.stderr)
        failed = max(failed, diff)
    metrics = {name: (value, _unit(name))
               for name, value in tr.layer_metrics().items()}
    # Calibrated times, so host drift between the two passes does not
    # read as tracing overhead.
    metrics["trace.overhead_ratio"] = (
        sum(traced.calibrated()) / sum(plain.calibrated()), "ratio")
    meta["trace_jobs"] = len(jobs)
    meta["trace_spans"] = len(tr.spans)
    path = os.path.join(OUT_DIR, f"spans-{args.workload}.jsonl")
    tr.write(path, meta)
    meta["spans_file"] = os.path.relpath(path, ROOT)
    return {"attempted": len(jobs), "failed": failed, "metrics": metrics}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.startswith("serialize.bytes"):
        return "B"
    if name.endswith("_dim"):
        return "dim"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("verify-small", "gabor-sweep", "povm-roundtrip"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # Single-threaded BLAS, pinned before anything imports numpy; a
    # user-level tolerance override would change what the CLI computes.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    os.environ.pop("FRAMELAB_TOL", None)
    if not os.path.isfile(os.path.join(SRC, "framelab", "__init__.py")):
        print(f"error: no framelab sources under {SRC}; run from the "
              "repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    setup, kernels = measure_setup()
    import framelab
    if not framelab.__file__.startswith(SRC):
        print(f"error: imported framelab from {framelab.__file__}", file=sys.stderr)
        return 2
    import numpy as np

    import calibration
    import workloads as wl

    os.makedirs(OUT_DIR, exist_ok=True)
    meta = metadata(args, np, wl)
    meta["setup_samples_s"] = setup
    meta["setup_kernel_s"] = kernels
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        if args.trace:
            result = traced_run(args, wl, workdir, meta)
        else:
            result = timed_run(args, wl, workdir, meta)
            setup_cal = [t * calibration.CPU_KERNEL_S / k for t, k in zip(setup, kernels)]
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            result["metrics"]["setup_s"] = (statistics.median(setup_cal), "s")
            result["metrics"]["peak_rss_mb"] = (rss_mb, "MB")
            meta["raw"]["setup_s"] = statistics.median(setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    meta["jobs"] = result["attempted"]
    meta["fail_ratio"] = result["failed"] / result["attempted"]
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
