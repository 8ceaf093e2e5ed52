"""Command line interface.

Commands mirror the library: ``gen`` builds frames and sequences,
``analyze`` reports on a saved object, ``convert`` moves between
frames and POVMs, ``gleason`` runs the frame-function verifiers,
``cazac`` handles sequences, and ``experiment`` runs the randomized
studies.  All randomized commands take ``--seed`` (default 0) and
echo the seed in their output, and all output is canonical JSON (or
CSV for ambiguity grids), so a repeated invocation is byte-identical.

Exit codes: 0 success, 2 bad input or parameters, 3 violated
precondition on well-formed input, 4 a verification failed under
``--strict``.  The default tolerance is 1e-10, overridable per call
with ``--tol`` or globally through the FRAMELAB_TOL environment
variable.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from . import frames, gleason, povm, serialize, waveforms
from .errors import InputError, PreconditionError
from .linalg import DEFAULT_TOL, random_hermitian, resolve_tol
from .rng import SplitMix64


def _env_tol() -> float | None:
    raw = os.environ.get("FRAMELAB_TOL")
    if raw is None:
        return None
    try:
        return float(raw)
    except ValueError as exc:
        raise InputError(f"FRAMELAB_TOL is not a number: {raw!r}") from exc


def _tol_of(args) -> float:
    if getattr(args, "tol", None) is not None:
        return resolve_tol(args.tol)
    return resolve_tol(_env_tol())


def _emit_report(args, obj) -> None:
    # Emitted once: stdout and the --out file hold the same bytes.
    text = serialize.canonical_json(obj)
    print(text)
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines((text, "\n"))


# ---------------------------------------------------------------------------
# gen


def _cmd_gen_frame(args, kind: str) -> int:
    seed_note = ""
    try:
        if kind == "simplex":
            f = frames.simplex_etf(args.dim)
        elif kind == "onb":
            f = frames.standard_onb(args.dim, args.field)
        elif kind == "random-onb":
            f = frames.random_onb(args.dim, seed=args.seed, field=args.field)
            seed_note = f" seed={args.seed}"
        elif kind == "random-parseval":
            f = frames.random_parseval(
                args.dim, args.n, seed=args.seed, field=args.field
            )
            seed_note = f" seed={args.seed}"
        elif kind == "harmonic":
            selector = None
            if args.selector:
                try:
                    selector = tuple(int(s) for s in args.selector.split(","))
                except ValueError as exc:
                    raise InputError(f"bad selector: {args.selector!r}") from exc
            f = frames.harmonic_frame(args.dim, args.n, selector)
        else:  # pragma: no cover - parser restricts kinds
            raise InputError(f"unknown frame kind {kind!r}")
    except PreconditionError as exc:
        # At the command line a violated constructor precondition is
        # just a bad parameter.
        raise InputError(str(exc)) from exc
    out = args.out or f"{kind}.json"
    serialize.write_json(out, serialize.frame_to_json(f))
    print(
        f"frame kind={kind} n={len(f)} dim={f.dim} field={f.field}"
        f"{seed_note} -> {out}"
    )
    return 0


def _cmd_gen_sequence(args, kind: str) -> int:
    try:
        if kind == "bjorck":
            u = waveforms.bjorck(args.p)
        else:
            u = waveforms.quadratic_phase(args.len)
    except PreconditionError as exc:
        raise InputError(str(exc)) from exc
    out = args.out or f"{kind}.json"
    serialize.write_json(out, serialize.sequence_to_json(u))
    print(f"sequence kind={kind} length={u.shape[0]} -> {out}")
    return 0


# ---------------------------------------------------------------------------
# analyze


def _cmd_analyze(args) -> int:
    tol = _tol_of(args)
    obj = serialize.load_json(args.path)
    kind = serialize.sniff_kind(obj)
    if kind == "frame":
        f = serialize.frame_from_json(obj)
        report = serialize.frame_report_to_json(frames.analyze_frame(f, tol))
        report["object"] = "frame"
        ok = True
    elif kind == "sequence":
        u = serialize.sequence_from_json(obj)
        cz = waveforms.is_cazac(u, tol)
        report = serialize.cazac_report_to_json(cz)
        report["object"] = "sequence"
        report["ambiguity_peak"] = waveforms.ambiguity(u).peak_off_origin()
        ok = cz.ok
    else:
        p = serialize.povm_from_json(obj)
        total = np.sum(p.effects, axis=0)
        sum_dev = float(np.max(np.abs(total - np.eye(p.dim))))
        effects_ok = all(povm.is_effect(p.effects[j], tol) for j in range(len(p)))
        ok = effects_ok and sum_dev <= tol
        report = {
            "object": "povm",
            "dim": p.dim,
            "num_effects": len(p),
            "sum_deviation": sum_dev,
            "effects_valid": effects_ok,
            "valid": ok,
            "tol": tol,
        }
    _emit_report(args, report)
    if args.strict and not ok:
        return 4
    return 0


# ---------------------------------------------------------------------------
# convert


def _parse_partition(text: str) -> list[list[int]]:
    groups: list[list[int]] = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            groups.append([])
            continue
        try:
            groups.append([int(s) for s in chunk.split(",")])
        except ValueError as exc:
            raise InputError(f"bad partition chunk {chunk!r}") from exc
    return groups


def _cmd_convert(args) -> int:
    tol = _tol_of(args)
    obj = serialize.load_json(args.path)
    if args.to == "povm":
        f = serialize.frame_from_json(obj)
        if args.partition:
            p = povm.povm_from_frame_grouped(
                f, _parse_partition(args.partition), tol
            )
        else:
            p = povm.povm_from_frame(f, tol)
        serialize.write_json(args.out, serialize.povm_to_json(p))
        print(
            f"povm effects={len(p)} dim={p.dim} "
            f"grouped={p.partition is not None} -> {args.out}"
        )
    else:
        p = serialize.povm_from_json(obj)
        result = povm.frame_from_povm(p, tol, pad_zeros=args.pad_zeros)
        payload = serialize.frame_to_json(result.frame)
        payload["partition"] = result.partition
        payload["dropped"] = result.dropped
        serialize.write_json(args.out, payload)
        print(
            f"frame n={len(result.frame)} dim={result.frame.dim} "
            f"dropped={result.dropped} -> {args.out}"
        )
    return 0


# ---------------------------------------------------------------------------
# gleason


def _spec_field(obj: dict, key: str, convert, default=None):
    # A JSON function-spec field follows the loaders' one rule for a
    # number (serialize._number), and an int field takes only integral
    # ones.  Anything else, or a missing field, is bad input.
    value = obj.get(key, default)
    try:
        number = serialize._number(value, key)
    except InputError:
        number = None
    if number is None or not (convert is float or number.is_integer()):
        raise InputError(f"{obj['kind']} spec needs a valid {key!r}")
    return convert(value)


def _build_gleason_from_obj(obj, args) -> gleason.GleasonFn:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise InputError("function spec must be an object with a 'kind' key")
    kind = obj["kind"]
    if kind == "quadratic":
        if "operator" not in obj:
            raise InputError("quadratic spec needs an 'operator' matrix")
        mat = serialize.matrix_from_json(obj["operator"], "operator")
        return gleason.quadratic_gleason(
            mat, _spec_field(obj, "const", float, 0.0)
        )
    if kind == "cos2d":
        return gleason.cos_counterexample(_spec_field(obj, "n", int))
    if kind == "epsilon1d":
        return gleason.epsilon_1d_counterexample(_spec_field(obj, "eps", float))
    if kind == "expnorm":
        dim = _spec_field(obj, "dim", int, getattr(args, "dim", None) or 0)
        if dim < 1:
            raise InputError("expnorm spec needs a positive 'dim'")
        return gleason.expnorm_gleason(dim, obj.get("field", "C"))
    if kind == "rational_indicator":
        return gleason.rational_indicator_counterexample()
    raise InputError(f"unknown function kind {kind!r}")


def _build_gleason(args) -> gleason.GleasonFn:
    spec = args.spec
    if spec.lstrip().startswith("{"):
        return _build_gleason_from_obj(serialize.parse_json(spec), args)
    if spec.endswith(".json"):
        return _build_gleason_from_obj(serialize.load_json(spec), args)

    name, _, arg = spec.partition(":")
    if name == "quadratic":
        if args.dim is None:
            raise InputError("compact 'quadratic' spec needs --dim")
        mat = random_hermitian(args.dim, seed=args.seed, field=args.field)
        return gleason.quadratic_gleason(mat, args.const)
    if name == "cos2d":
        try:
            n = int(arg or "2")
        except ValueError as exc:
            raise InputError(f"bad cos2d index {arg!r}") from exc
        return gleason.cos_counterexample(n)
    if name == "epsilon1d":
        try:
            eps = float(arg or "0.2")
        except ValueError as exc:
            raise InputError(f"bad epsilon {arg!r}") from exc
        return gleason.epsilon_1d_counterexample(eps)
    if name == "expnorm":
        if args.dim is None:
            raise InputError("compact 'expnorm' spec needs --dim")
        return gleason.expnorm_gleason(args.dim, args.field)
    if name == "rational_indicator":
        return gleason.rational_indicator_counterexample()
    raise InputError(f"unknown function spec {spec!r}")


def _demonstrate_counterexample(args, g, tol: float) -> int:
    """Run the full battery on one function and say whether some quadratic
    form could still explain it.

    Random sampling cannot see a measure-zero defect, so the swap family on
    the line carries its explicit three-vector witness instead.
    """
    n = args.n if args.n is not None else g.dim + 1
    onb_rep = gleason.verify_onb_gleason(
        g, trials=args.trials, seed=args.seed, tol=tol
    )
    par_rep = gleason.verify_parseval_gleason(
        g, n, trials=args.trials, seed=args.seed, tol=tol
    )
    fit = gleason.fit_quadratic(g, samples=args.samples, seed=args.seed)
    homog = gleason.homogeneity_check(g, samples=args.samples, seed=args.seed, tol=tol)
    is_ce = (
        fit.verdict == "not_quadratic"
        or not onb_rep.passed
        or not par_rep.passed
        or not homog.passed
    )
    report = {
        "object": "counterexample",
        "kind": g.kind,
        "dim": g.dim,
        "field": g.field,
        "params": dict(g.params),
        "onb": serialize.verification_report_to_json(onb_rep),
        "parseval_n": n,
        "parseval": serialize.verification_report_to_json(par_rep),
        "fit": serialize.fit_result_to_json(fit),
        "homogeneity": serialize.scaling_report_to_json(homog),
    }
    if g.kind == "epsilon1d":
        eps = float(g.params["eps"])
        entries = [
            math.sqrt(eps), math.sqrt(eps), math.sqrt(1.0 - 2.0 * eps),
        ]
        total = sum(g.values(np.array(entries)[:, None]).real.tolist())
        expected = complex(par_rep.mean_weight).real
        report["explicit_degree3"] = {
            "vectors": entries,
            "sum": total,
            "degree2_weight": expected,
        }
        is_ce = is_ce or abs(total - expected) > tol
    report["is_counterexample"] = is_ce
    _emit_report(args, report)
    return 4 if (args.strict and not is_ce) else 0


def _cmd_gleason(args) -> int:
    tol = _tol_of(args)
    g = _build_gleason(args)
    if args.mode == "verify-onb":
        report = gleason.verify_onb_gleason(
            g, trials=args.trials, seed=args.seed, tol=tol
        )
        _emit_report(args, serialize.verification_report_to_json(report))
        return 4 if (args.strict and not report.passed) else 0
    if args.mode == "verify-parseval":
        if args.n is None:
            raise InputError("verify-parseval needs --n")
        report = gleason.verify_parseval_gleason(
            g, args.n, trials=args.trials, seed=args.seed, tol=tol
        )
        _emit_report(args, serialize.verification_report_to_json(report))
        return 4 if (args.strict and not report.passed) else 0
    if args.mode == "fit":
        fit = gleason.fit_quadratic(g, samples=args.samples, seed=args.seed)
        _emit_report(args, serialize.fit_result_to_json(fit))
        return 4 if (args.strict and fit.verdict == "not_quadratic") else 0
    if args.mode == "counterexample":
        return _demonstrate_counterexample(args, g, tol)
    # ladder
    if args.n0 is None or args.n1 is None:
        raise InputError("ladder needs --n0 and --n1")
    ladder = gleason.degree_ladder_experiment(
        g, args.n0, args.n1, trials=args.trials, seed=args.seed, tol=tol
    )
    _emit_report(args, serialize.ladder_report_to_json(ladder))
    ok = ladder.increments_ok and all(ladder.passed)
    return 4 if (args.strict and not ok) else 0


# ---------------------------------------------------------------------------
# cazac


def _load_sequence(path: str) -> np.ndarray:
    return serialize.sequence_from_json(serialize.load_json(path))


def _cmd_cazac(args) -> int:
    tol = _tol_of(args)
    if args.mode == "test":
        u = _load_sequence(args.path)
        report = waveforms.is_cazac(u, tol)
        _emit_report(args, serialize.cazac_report_to_json(report))
        return 4 if (args.strict and not report.ok) else 0
    if args.mode == "ambiguity":
        u = _load_sequence(args.path)
        table = waveforms.ambiguity(u)
        out = args.out or "ambiguity.csv"
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(serialize.ambiguity_to_csv(table))
        print(
            f"ambiguity length={table.length} "
            f"peak_off_origin={serialize.fmt_float(table.peak_off_origin())} "
            f"-> {out}"
        )
        return 0
    # gabor
    u = _load_sequence(args.path)
    f = waveforms.gabor_frame(u, tol)
    out = args.out or "gabor.json"
    serialize.write_json(out, serialize.frame_to_json(f))
    d = u.shape[0]
    op = frames.frame_operator(f)
    tight_dev = float(np.max(np.abs(op - d * np.eye(d))))
    report = {
        "length": d,
        "num_vectors": len(f),
        "tight_constant": float(d),
        "tight_deviation": tight_dev,
        "coherence": frames.coherence(f, tol),
        "ambiguity_peak": waveforms.ambiguity(u).peak_off_origin(),
        "tol": tol,
        "out": out,
    }
    print(serialize.canonical_json(report))
    return 0


# ---------------------------------------------------------------------------
# experiment


def _cmd_experiment(args) -> int:
    tol = _tol_of(args)
    rng = SplitMix64(args.seed)
    if args.mode == "weight-trace":
        worst = 0.0
        for t in range(args.trials):
            field = "C" if t % 2 == 0 else "R"
            a = random_hermitian(args.dim, seed=rng.u64(), field=field)
            g = gleason.quadratic_gleason(a)
            f = frames.random_parseval(args.dim, args.n, seed=rng.u64(), field=field)
            total = gleason._sum_over_frame(g, f)
            worst = max(worst, abs(total - complex(np.trace(a))))
        report = {
            "experiment": "weight-trace",
            "dim": args.dim,
            "n": args.n,
            "trials": args.trials,
            "seed": args.seed,
            "tol": tol,
            "max_deviation": worst,
            "passed": worst <= tol,
        }
        _emit_report(args, report)
        return 4 if (args.strict and worst > tol) else 0

    if args.mode == "busch":
        n_family = args.n_family if args.n_family is not None else args.dim + 2
        ident = 0.0
        additivity = 0.0
        lo = math.inf
        hi = -math.inf
        all_passed = True
        for _ in range(args.states):
            rho = povm.random_density(args.dim, seed=rng.u64())
            result = povm.check_generalized_measure(
                lambda e, r=rho: float(np.trace(r @ e).real),
                args.dim,
                n_family,
                trials=args.trials,
                seed=rng.u64(),
                tol=tol,
            )
            ident = max(ident, result.identity_deviation)
            additivity = max(additivity, result.additivity_deviation)
            lo = min(lo, result.range_min)
            hi = max(hi, result.range_max)
            all_passed = all_passed and result.passed
        report = {
            "experiment": "busch",
            "dim": args.dim,
            "n_family": n_family,
            "states": args.states,
            "trials": args.trials,
            "seed": args.seed,
            "tol": tol,
            "max_identity_deviation": ident,
            "max_additivity_deviation": additivity,
            "range_min": lo,
            "range_max": hi,
            "passed": all_passed,
        }
        _emit_report(args, report)
        return 4 if (args.strict and not all_passed) else 0

    # born
    min_prob = math.inf
    sum_dev = 0.0
    for t in range(args.trials):
        d = args.dim
        rho = povm.random_density(d, seed=rng.u64())
        k = d + 2 + rng.below(3)
        n = max(d, k) + rng.below(d + 2)
        f = frames.random_parseval(d, n, seed=rng.u64())
        groups: list[list[int]] = [[] for _ in range(k)]
        for i in range(n):
            groups[rng.below(k)].append(i)
        p = povm.povm_from_frame_grouped(f, groups, tol)
        probs = povm.born_probabilities(rho, p, tol)
        min_prob = min(min_prob, float(np.min(probs)))
        sum_dev = max(sum_dev, abs(float(np.sum(probs)) - 1.0))
    passed = min_prob >= -tol and sum_dev <= tol
    report = {
        "experiment": "born",
        "dim": args.dim,
        "trials": args.trials,
        "seed": args.seed,
        "tol": tol,
        "min_probability": min_prob,
        "max_sum_deviation": sum_dev,
        "passed": passed,
    }
    _emit_report(args, report)
    return 4 if (args.strict and not passed) else 0


# ---------------------------------------------------------------------------
# parser


def _add_common(p, *, seed=True, tol=True, out=True, strict=False):
    if seed:
        p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    if tol:
        p.add_argument("--tol", type=float, default=None,
                       help=f"tolerance (default FRAMELAB_TOL or {DEFAULT_TOL})")
    if out:
        p.add_argument("--out", default=None, help="output file")
    if strict:
        p.add_argument("--strict", action="store_true",
                       help="exit 4 when the check fails")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="framelab",
        description="Finite frames, POVMs, frame functions, and CAZAC sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate frames and sequences")
    gen_sub = gen.add_subparsers(dest="kind", required=True)

    p = gen_sub.add_parser("simplex", help="regular simplex frame in R^d")
    p.add_argument("--dim", type=int, required=True)
    _add_common(p, seed=False, tol=False)
    p.set_defaults(func=lambda a: _cmd_gen_frame(a, "simplex"))

    p = gen_sub.add_parser("onb", help="coordinate orthonormal basis")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--field", choices=("R", "C"), default="R")
    _add_common(p, seed=False, tol=False)
    p.set_defaults(func=lambda a: _cmd_gen_frame(a, "onb"))

    p = gen_sub.add_parser("random-onb", help="random orthonormal basis")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--field", choices=("R", "C"), default="C")
    _add_common(p, tol=False)
    p.set_defaults(func=lambda a: _cmd_gen_frame(a, "random-onb"))

    p = gen_sub.add_parser("random-parseval", help="random Parseval frame")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--field", choices=("R", "C"), default="C")
    _add_common(p, tol=False)
    p.set_defaults(func=lambda a: _cmd_gen_frame(a, "random-parseval"))

    p = gen_sub.add_parser("harmonic", help="harmonic (DFT-column) frame")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--selector", "--sel", default=None,
                   help="comma-separated 1-based DFT columns")
    _add_common(p, seed=False, tol=False)
    p.set_defaults(func=lambda a: _cmd_gen_frame(a, "harmonic"))

    p = gen_sub.add_parser("bjorck", help="Legendre-phase CAZAC sequence")
    p.add_argument("--p", type=int, required=True, help="prime length >= 5")
    _add_common(p, seed=False, tol=False)
    p.set_defaults(func=lambda a: _cmd_gen_sequence(a, "bjorck"))

    p = gen_sub.add_parser("quadratic-phase", help="odd-length CAZAC sequence")
    p.add_argument("--len", type=int, required=True)
    _add_common(p, seed=False, tol=False)
    p.set_defaults(func=lambda a: _cmd_gen_sequence(a, "quadratic-phase"))

    p = sub.add_parser("analyze", help="report on a saved frame, povm, or sequence")
    p.add_argument("path")
    _add_common(p, seed=False, strict=True)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("convert", help="frame <-> povm conversion")
    p.add_argument("path")
    p.add_argument("--to", choices=("povm", "frame"), required=True)
    p.add_argument("--partition", default=None,
                   help="groups like '0,1;2,3' (frame -> povm only)")
    p.add_argument("--pad-zeros", action="store_true",
                   help="keep zero vectors for dropped eigenvalues")
    p.add_argument("--out", required=True)
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("gleason", help="frame-function verifiers")
    p.add_argument(
        "mode",
        choices=("verify-onb", "verify-parseval", "fit", "ladder", "counterexample"),
    )
    p.add_argument("--spec", required=True,
                   help="compact name (cos2d:6), inline JSON, or a .json path")
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--field", choices=("R", "C"), default="C")
    p.add_argument("--const", type=float, default=0.0,
                   help="constant offset for compact quadratic specs")
    p.add_argument("--n", type=int, default=None, help="frame size")
    p.add_argument("--n0", type=int, default=None, help="ladder start")
    p.add_argument("--n1", type=int, default=None, help="ladder end")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--samples", type=int, default=500)
    _add_common(p, strict=True)
    p.set_defaults(func=_cmd_gleason)

    p = sub.add_parser("cazac", help="CAZAC sequence tools")
    p.add_argument("mode", choices=("test", "ambiguity", "gabor"))
    p.add_argument("path", help="sequence JSON file")
    _add_common(p, seed=False, strict=True)
    p.set_defaults(func=_cmd_cazac)

    p = sub.add_parser("experiment", help="randomized studies")
    exp_sub = p.add_subparsers(dest="mode", required=True)

    q = exp_sub.add_parser("weight-trace",
                           help="frame sums of quadratic forms vs the trace")
    q.add_argument("--dim", type=int, default=3)
    q.add_argument("--n", type=int, default=6)
    q.add_argument("--trials", type=int, default=200)
    _add_common(q, strict=True)
    q.set_defaults(func=_cmd_experiment)

    q = exp_sub.add_parser("busch",
                           help="trace rule vs the probability axioms")
    q.add_argument("--dim", type=int, default=3)
    q.add_argument("--n-family", type=int, default=None,
                   help="POVM family size (default dim + 2)")
    q.add_argument("--states", type=int, default=10)
    q.add_argument("--trials", type=int, default=20)
    _add_common(q, strict=True)
    q.set_defaults(func=_cmd_experiment)

    q = exp_sub.add_parser("born", help="probability vectors from random states")
    q.add_argument("--dim", type=int, default=3)
    q.add_argument("--trials", type=int, default=100)
    _add_common(q, strict=True)
    q.set_defaults(func=_cmd_experiment)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built on the first call, not at import; parsing leaves it unchanged.
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
