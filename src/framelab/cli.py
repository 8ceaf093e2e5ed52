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
import os
import sys

from . import frames, gleason, povm, serialize, waveforms
from .errors import InputError, PreconditionError
from .linalg import DEFAULT_TOL, random_hermitian, resolve_tol
from .rng import _integer


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


def _report_text(record, **keys) -> str:
    # The one place the CLI forms a report: the record as the emitter
    # writes it, plus the CLI's own keys.
    return serialize.canonical_json(
        serialize.flat_report_to_json(record) | keys
    )


def _emit_report(args, record, ok: bool, **keys) -> int:
    # Emitted once: stdout and the --out file hold the same bytes.
    # Returns the exit code: 4 when the check failed under --strict.
    text = _report_text(record, **keys)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines((text, "\n"))
    return 4 if (args.strict and not ok) else 0


# ---------------------------------------------------------------------------
# gen


def _selector(text: str | None) -> tuple[int, ...] | None:
    if text is None:
        return None
    try:
        return tuple(int(s) for s in text.split(","))
    except ValueError as exc:
        raise InputError(f"bad selector: {text!r}") from exc


def _cmd_gen(args) -> int:
    try:
        made = args.build(args)
    except PreconditionError as exc:
        # At the command line a violated constructor precondition is
        # just a bad parameter.
        raise InputError(str(exc)) from exc
    out = args.out or f"{args.kind}.json"
    if isinstance(made, frames.Frame):
        serialize.write_json(out, serialize.frame_to_json(made))
        seed_note = f" seed={args.seed}" if "seed" in args else ""
        print(
            f"frame kind={args.kind} n={len(made)} dim={made.dim} "
            f"field={made.field}{seed_note} -> {out}"
        )
    else:
        serialize.write_json(out, serialize.sequence_to_json(made))
        print(f"sequence kind={args.kind} length={made.shape[0]} -> {out}")
    return 0


# ---------------------------------------------------------------------------
# analyze


def _cmd_analyze(args) -> int:
    tol = _tol_of(args)
    obj = serialize.load_json(args.path)
    kind = serialize.sniff_kind(obj)
    keys = {"object": kind}
    if kind == "frame":
        report = frames.analyze_frame(serialize.frame_from_json(obj), tol)
        ok = True
    elif kind == "sequence":
        report = waveforms.is_cazac(serialize.sequence_from_json(obj), tol)
        ok = report.ok
    else:
        report = povm.analyze_povm(serialize.povm_from_json(obj), tol)
        ok = report.valid
    return _emit_report(args, report, ok, **keys)


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
    # Each option belongs to one direction; given to the other, it is
    # bad input rather than silently ignored.
    for option, given, direction in (
        ("--partition", args.partition is not None, "povm"),
        ("--pad-zeros", args.pad_zeros, "frame"),
    ):
        if given and args.to != direction:
            raise InputError(
                f"{option} applies to 'convert --to {direction}', "
                f"not 'convert --to {args.to}'"
            )
    tol = _tol_of(args)
    obj = serialize.load_json(args.path)
    if args.to == "povm":
        f = serialize.frame_from_json(obj)
        if args.partition is not None:
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


def _spec_field(obj: dict, key: str, rule, default=None):
    # A JSON function-spec field follows the loaders' number rule
    # (serialize._number) and its own ``rule``, the integer rule for a
    # count.  Anything else, or a missing field, is bad input.
    value = obj.get(key, default)
    try:
        serialize._number(value, key)
        return rule(value, key)
    except InputError:
        raise InputError(f"{obj['kind']} spec needs a valid {key!r}") from None


def _build_gleason_from_obj(obj, args) -> gleason.GleasonFn:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise InputError("function spec must be an object with a 'kind' key")
    kind = obj["kind"]
    if kind == "quadratic":
        if "operator" not in obj:
            raise InputError("quadratic spec needs an 'operator' matrix")
        mat = serialize.matrix_from_json(obj["operator"], "operator")
        return gleason.quadratic_gleason(
            mat, _spec_field(obj, "const", serialize._number, 0.0)
        )
    if kind == "cos2d":
        return gleason.cos_counterexample(_spec_field(obj, "n", _integer))
    if kind == "epsilon1d":
        return gleason.epsilon_1d_counterexample(
            _spec_field(obj, "eps", serialize._number)
        )
    if kind == "expnorm":
        positive = functools.partial(_integer, floor=1)
        dim = _spec_field(obj, "dim", positive, args.dim or 0)
        return gleason.expnorm_gleason(dim, obj.get("field", "C"))
    if kind == "rational_indicator":
        return gleason.rational_indicator_counterexample()
    raise InputError(f"unknown function kind {kind!r}")


# The field a compact spec's ":<number>" fills, and its default text.
_COMPACT_NUMBER = {"cos2d": ("n", "2"), "epsilon1d": ("eps", "0.2")}


def _compact_spec(args) -> dict:
    # The JSON spec that a compact one stands for.  Its number is read
    # as JSON text, so it follows the same number rule; text that is no
    # JSON value stays a string, which that rule rejects.
    name, _, arg = args.spec.partition(":")
    obj = {"kind": name}
    if arg and name in ("quadratic", "expnorm", "rational_indicator"):
        raise InputError(f"compact {name!r} spec takes no text after ':'")
    if name in _COMPACT_NUMBER:
        key, default = _COMPACT_NUMBER[name]
        try:
            obj[key] = serialize.parse_json(arg or default)
        except InputError:
            obj[key] = arg
    elif name in ("quadratic", "expnorm"):
        if args.dim is None:
            raise InputError(f"compact {name!r} spec needs --dim")
        if name == "expnorm":
            obj["field"] = args.field
        else:
            obj["operator"] = random_hermitian(
                args.dim, seed=args.seed, field=args.field
            )
            obj["const"] = args.const
    return obj


def _build_gleason(args) -> gleason.GleasonFn:
    spec = args.spec
    if spec.lstrip().startswith("{"):
        obj = serialize.parse_json(spec)
    elif spec.endswith(".json"):
        obj = serialize.load_json(spec)
    else:
        obj = _compact_spec(args)
    return _build_gleason_from_obj(obj, args)


def _cmd_gleason(args) -> int:
    tol = _tol_of(args)
    g = _build_gleason(args)
    keys = {}
    if args.mode == "verify-onb":
        report = gleason.verify_onb_gleason(
            g, trials=args.trials, seed=args.seed, tol=tol
        )
        ok = report.passed
    elif args.mode == "verify-parseval":
        if args.n is None:
            raise InputError("verify-parseval needs --n")
        report = gleason.verify_parseval_gleason(
            g, args.n, trials=args.trials, seed=args.seed, tol=tol
        )
        ok = report.passed
    elif args.mode == "fit":
        report = gleason.fit_quadratic(g, samples=args.samples, seed=args.seed)
        ok = report.verdict != "not_quadratic"
    elif args.mode == "counterexample":
        report = gleason.counterexample_battery(
            g, args.n, trials=args.trials, samples=args.samples,
            seed=args.seed, tol=tol,
        )
        keys["object"] = "counterexample"
        ok = report.is_counterexample
    else:  # ladder
        if args.n0 is None or args.n1 is None:
            raise InputError("ladder needs --n0 and --n1")
        report = gleason.degree_ladder_experiment(
            g, args.n0, args.n1, trials=args.trials, seed=args.seed, tol=tol
        )
        ok = report.increments_ok and all(report.passed)
    return _emit_report(args, report, ok, **keys)


# ---------------------------------------------------------------------------
# cazac


def _cmd_cazac(args) -> int:
    if args.strict and args.mode != "test":
        # Only the test mode has a verdict for --strict to act on.
        raise InputError(
            f"--strict applies to 'cazac test', not 'cazac {args.mode}'"
        )
    tol = _tol_of(args)
    u = serialize.sequence_from_json(serialize.load_json(args.path))
    if args.mode == "test":
        report = waveforms.is_cazac(u, tol)
        return _emit_report(args, report, report.ok)
    if args.mode == "ambiguity":
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
    f, report = waveforms.analyze_gabor(u, tol)
    out = args.out or "gabor.json"
    serialize.write_json(out, serialize.frame_to_json(f))
    # --out names the frame file, so the report goes to stdout only.
    print(_report_text(report, out=out))
    return 0


# ---------------------------------------------------------------------------
# experiment


def _cmd_experiment(args) -> int:
    tol = _tol_of(args)
    if args.mode == "weight-trace":
        report = gleason.weight_trace_experiment(
            args.dim, args.n, trials=args.trials, seed=args.seed, tol=tol
        )
    elif args.mode == "busch":
        report = povm.busch_experiment(
            args.dim, args.n_family, states=args.states, trials=args.trials,
            seed=args.seed, tol=tol,
        )
    else:
        report = povm.born_experiment(
            args.dim, trials=args.trials, seed=args.seed, tol=tol
        )
    return _emit_report(args, report, report.passed, experiment=args.mode)


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
    p.set_defaults(func=_cmd_gen, build=lambda a: frames.simplex_etf(a.dim))

    p = gen_sub.add_parser("onb", help="coordinate orthonormal basis")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--field", choices=("R", "C"), default="R")
    _add_common(p, seed=False, tol=False)
    p.set_defaults(
        func=_cmd_gen, build=lambda a: frames.standard_onb(a.dim, a.field)
    )

    p = gen_sub.add_parser("random-onb", help="random orthonormal basis")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--field", choices=("R", "C"), default="C")
    _add_common(p, tol=False)
    p.set_defaults(func=_cmd_gen, build=lambda a: frames.random_onb(
        a.dim, seed=a.seed, field=a.field
    ))

    p = gen_sub.add_parser("random-parseval", help="random Parseval frame")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--field", choices=("R", "C"), default="C")
    _add_common(p, tol=False)
    p.set_defaults(func=_cmd_gen, build=lambda a: frames.random_parseval(
        a.dim, a.n, seed=a.seed, field=a.field
    ))

    p = gen_sub.add_parser("harmonic", help="harmonic (DFT-column) frame")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--selector", "--sel", default=None,
                   help="comma-separated 1-based DFT columns")
    _add_common(p, seed=False, tol=False)
    p.set_defaults(func=_cmd_gen, build=lambda a: frames.harmonic_frame(
        a.dim, a.n, _selector(a.selector)
    ))

    p = gen_sub.add_parser("bjorck", help="Legendre-phase CAZAC sequence")
    p.add_argument("--p", type=int, required=True, help="prime length >= 5")
    _add_common(p, seed=False, tol=False)
    p.set_defaults(func=_cmd_gen, build=lambda a: waveforms.bjorck(a.p))

    p = gen_sub.add_parser("quadratic-phase", help="odd-length CAZAC sequence")
    p.add_argument("--len", type=int, required=True)
    _add_common(p, seed=False, tol=False)
    p.set_defaults(
        func=_cmd_gen, build=lambda a: waveforms.quadratic_phase(a.len)
    )

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
                   help="keep zero vectors for dropped null directions "
                        "(povm -> frame only)")
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

    q = exp_sub.add_parser("busch",
                           help="trace rule vs the probability axioms")
    q.add_argument("--dim", type=int, default=3)
    q.add_argument("--n-family", type=int, default=None,
                   help="POVM family size (default dim + 2)")
    q.add_argument("--states", type=int, default=10)
    q.add_argument("--trials", type=int, default=20)
    _add_common(q, strict=True)

    q = exp_sub.add_parser("born", help="probability vectors from random states")
    q.add_argument("--dim", type=int, default=3)
    q.add_argument("--trials", type=int, default=100)
    _add_common(q, strict=True)
    p.set_defaults(func=_cmd_experiment)

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
