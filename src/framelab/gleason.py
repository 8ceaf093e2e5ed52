"""Frame functions on the unit sphere and ball, and their verifiers.

A function g is an orthonormal-basis frame function of weight W when
the sum of g over every orthonormal basis equals W, and a degree-N
Parseval frame function when the sum over every N-vector Parseval
frame equals W.  Quadratic forms x -> <A x, x> are the tame examples,
with W = trace(A).  This module builds those, builds the classical
pathological examples in dimension 2 and in dimension 1 that are
frame functions without being quadratic, and provides randomized
verifiers, a quadratic-form fitter, the homogeneity check, the
degree-ladder experiment that separates the degrees, the
weight-trace experiment, and the counterexample battery that runs
every check on one function.

Functions defined on the sphere extend to the closed ball by
g(r u) = r^2 g(u), which is the convention used throughout.

Evaluation works on blocks: a :class:`GleasonFn` holds one evaluator
that maps an (n, dim) array of points to their n values, checked once
per block.  The verifiers sum whole frames through
:meth:`GleasonFn.values`; calling a function on one vector evaluates a
1-row block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import linalg
from .errors import (
    BadCardinalityError,
    BadEpsilonError,
    BadNError,
    InputError,
    NotSquareError,
    OutOfBallError,
)
from .frames import (
    Frame,
    _frame_size,
    _projections,
    _squared_norms,
    harmonic_frame,
    random_onb,
    random_parseval,
    standard_onb,
    with_zeros,
)
from .linalg import resolve_tol
from .rng import _NO_TRIAL, SplitMix64, _check_field, _integer

_BALL_SLACK = 1e-6
_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class GleasonFn:
    """A function on the closed unit ball of R^dim or C^dim.

    ``dim`` is at least 1 by the integer rule of :mod:`framelab.rng`,
    ``field`` is "R" or "C", ``kind`` names the construction, and
    ``params`` records construction inputs for reporting.  ``fn``
    evaluates a block: it takes an (n, dim) array of points and returns
    their n values as complex numbers in row order.  :meth:`values`
    evaluates a block whose points pass the array rule of
    :mod:`framelab.linalg` for the field (which casts them) and lie in
    the ball; calling an instance on one vector evaluates it as a 1-row
    block and returns a float when the value is real.
    """

    dim: int
    field: str
    kind: str
    fn: Callable[[np.ndarray], Sequence[complex]]
    params: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        _check_field(self.field)
        object.__setattr__(self, "dim", _integer(self.dim, "dimension", 1))

    def _checked(self, block) -> np.ndarray:
        # The checks of the class docstring, applied once.  Returns a
        # C-contiguous (n, dim) block, so a row sum over a block has the
        # same bits as the sum over that row alone.
        v = np.asarray(block)
        if v.ndim != 2 or v.shape[1] != self.dim:
            raise InputError(
                f"expected an (n, {self.dim}) block, got shape {v.shape}"
            )
        v = linalg._field_array(
            v, self.field, "block",
            imaginary="real-field function evaluated at a complex vector",
        )
        nsq = _squared_norms(v)
        outside = nsq[nsq > (1.0 + _BALL_SLACK) ** 2]
        if outside.size:
            raise OutOfBallError(
                f"argument norm {math.sqrt(outside[0]):.6f} leaves the unit"
                " ball"
            )
        return v

    def values(self, block) -> np.ndarray:
        """Values at the rows of an (n, dim) block, as complex128.

        Entry i is the number ``self(block[i])`` returns; every row
        must lie in the ball.  A NaN or infinite value raises
        :class:`InputError`, since the min, max and comparisons behind
        a verdict would pass over it.
        """
        out = np.array(self.fn(self._checked(block)), dtype=np.complex128)
        finite = np.isfinite(out)
        if np.count_nonzero(finite) != out.size:
            i = int(np.argmin(finite))
            raise InputError(f"{self.kind} function is {out[i]} at row {i}")
        return out

    def __call__(self, x) -> float | complex:
        v = np.asarray(x)
        if v.ndim != 1 or v.shape[0] != self.dim:
            raise InputError(
                f"expected a vector of length {self.dim}, got shape {v.shape}"
            )
        out = complex(self.values(v[None, :])[0])
        return out.real if out.imag == 0.0 else out


class Witness(NamedTuple):
    """A sampled frame and the function's sum over it."""

    frame: Frame
    sum: float | complex


class VerificationReport(NamedTuple):
    """Result of summing a function over sampled frames."""

    kind: str
    dim: int
    field: str
    n: int | None
    trials: int
    seed: int
    tol: float
    mean_weight: float | complex
    max_deviation: float
    passed: bool
    witness_low: Witness
    witness_high: Witness


class FitResult(NamedTuple):
    """Best quadratic-form explanation of a function."""

    operator: np.ndarray
    weight: float | complex
    residual: float
    verdict: str
    samples: int
    seed: int


class ScalingReport(NamedTuple):
    """Result of the |alpha|^2 homogeneity spot check.

    ``witness`` is None when the check passes, else the worst sample:
    the point ``x`` as a complex128 vector, the complex scalar
    ``alpha`` and the complex ``lhs`` g(alpha x) and ``rhs``
    |alpha|^2 g(x), over either field.
    """

    samples: int
    seed: int
    max_deviation: float
    passed: bool
    witness: dict | None


class LadderReport(NamedTuple):
    """Mean weights of one function across a range of frame sizes."""

    kind: str
    dim: int
    degrees: list[int]
    weights: list[float]
    passed: list[bool]
    g_at_zero: float
    increments: list[float]
    increments_ok: bool
    trials: int
    seed: int
    tol: float


class WeightTraceReport(NamedTuple):
    """Worst gap between a quadratic form's Parseval frame sum and the
    trace of its operator."""

    dim: int
    n: int
    trials: int
    seed: int
    tol: float
    max_deviation: float
    passed: bool


class CounterexampleReport(NamedTuple):
    """Every check of :func:`counterexample_battery` on one function.

    ``explicit_degree3`` is set for the epsilon swap only: its
    three-vector frame of the line (``vectors``), the function's
    ``sum`` over it and the ``degree2_weight`` that sum should equal.
    Every other kind holds None there, which is written as null.
    """

    kind: str
    dim: int
    field: str
    params: dict
    onb: VerificationReport
    parseval_n: int
    parseval: VerificationReport
    fit: FitResult
    homogeneity: ScalingReport
    explicit_degree3: dict | None
    is_counterexample: bool


def _is_roundoff(im: float, re: float) -> bool:
    # The one demotion rule: the mixed-relative comparison at 1e-12.
    return linalg._negligible(im, re, 1e-12)


def _demote_scalar(z: complex) -> float | complex:
    return z.real if _is_roundoff(z.imag, z.real) else z


def _direction(
    rng: SplitMix64, d: int, field: str
) -> tuple[np.ndarray, float]:
    # A Gaussian direction and its norm, redrawn while the norm is at
    # most 1e-8.
    while True:
        direction = rng.field_gaussians(d, field)
        norm = math.sqrt(_squared_norms(direction))
        if norm > 1e-8:
            return direction, norm


def _on_circle(h: Callable[[float], float]) -> Callable:
    """Block evaluator of r^2 h(theta) at the points r (cos theta,
    sin theta) of a real block, with value 0 at the origin."""

    def fn(x: np.ndarray) -> list[complex]:
        out = []
        for a, b in x.tolist():
            rsq = a * a + b * b
            value = rsq * h(math.atan2(b, a)) if rsq != 0.0 else 0.0
            out.append(complex(value))
        return out

    return fn


# ---------------------------------------------------------------------------
# constructions


def quadratic_gleason(a, const: float = 0.0) -> GleasonFn:
    """The form x -> <A x, x> + const for Hermitian A.

    Its sum over any N-vector Parseval frame is trace(A) + N * const,
    so with const = 0 it is a frame function of every degree at once.
    A must pass the Hermitian check of :mod:`framelab.linalg` at 1e-12;
    the field is "C" exactly when A has a nonzero imaginary entry.
    """
    mat = linalg._as_matrix(a, "operator")
    linalg._hermitian_part(mat, 1e-12, "operator")
    const = float(const)
    field = "C" if mat.imag.any() else "R"
    mat = mat.copy() if field == "C" else mat.real.copy()

    def fn(x: np.ndarray) -> list[complex]:
        return [complex(np.vdot(r, mat @ r)) + const for r in x]

    return GleasonFn(
        dim=int(mat.shape[0]),
        field=field,
        kind="quadratic",
        fn=fn,
        params={"operator": mat, "const": const},
    )


def expnorm_gleason(dim: int, field: str = "C") -> GleasonFn:
    """g(x) = exp(|x|^2) - 1.

    Constant on the sphere, so its sum over any orthonormal basis is
    dim * (e - 1).  Over Parseval frames with more vectors than the
    dimension the sums genuinely depend on the frame, which is what
    separates basis frame functions from higher-degree ones.
    """
    def fn(x: np.ndarray) -> list[complex]:
        return [complex(math.expm1(t)) for t in _squared_norms(x).tolist()]

    return GleasonFn(
        dim=dim,
        field=field,
        kind="expnorm",
        fn=fn,
        params={},
    )


def cos_counterexample(n: int) -> GleasonFn:
    """g(cos t, sin t) = 1 + cos(n t) on the circle, extended by r^2.

    For n = 2 mod 4 the two basis directions t and t + pi/2 contribute
    cos terms that cancel, so every orthonormal basis sums to 2.  Only
    |n| = 2 gives a quadratic form (1 + cos 2t = 2 cos^2 t); larger
    |n| are weight-2 basis frame functions that no operator explains.
    """
    n = _integer(n, "index")
    if n % 4 != 2:
        raise BadNError(f"index must be 2 mod 4, got {n}")

    return GleasonFn(
        dim=2,
        field="R",
        kind="cos2d",
        fn=_on_circle(lambda theta: 1.0 + math.cos(n * theta)),
        params={"n": n},
    )


def _is_rational_angle(theta: float) -> bool:
    # "Rational" means theta is a rational multiple of pi.  In floats
    # that property is undecidable, so the working definition is:
    # within 1e-12 of a fraction with denominator at most 64.  Exact
    # for the angles any test or caller can actually construct.
    t = theta / math.pi
    approx = Fraction(t).limit_denominator(64)
    return abs(t - float(approx)) <= 1e-12


def _rational_branch(theta: float) -> float:
    theta = theta % _TWO_PI
    if theta >= math.pi:
        theta -= math.pi
    if theta < math.pi / 2.0:
        return 1.0 if _is_rational_angle(theta) else 0.0
    return 1.0 - (1.0 if _is_rational_angle(theta - math.pi / 2.0) else 0.0)


def rational_indicator_counterexample() -> GleasonFn:
    """A 0/1-valued weight-1 basis frame function on the circle.

    On the first quadrant the value is the indicator of the angle
    being a rational multiple of pi; the second quadrant carries the
    complement, and the pattern repeats with period pi.  Perpendicular
    directions then always contribute 1 + 0 or 0 + 1, so every
    orthonormal basis sums to exactly 1, yet the function is nowhere
    close to any quadratic form.  Extended to the ball by r^2.
    """
    return GleasonFn(
        dim=2,
        field="R",
        kind="rational_indicator",
        fn=_on_circle(_rational_branch),
        params={},
    )


def epsilon_1d_counterexample(eps: float) -> GleasonFn:
    """A degree-2 frame function on the unit interval that is not the
    squared norm, for 0 < eps < 1/3.

    With t = |x|^2 the value is t except at the two points t = eps and
    t = 1 - eps, which swap to 1 - eps and eps.  Any two numbers
    summing to 1 keep summing to 1 after the swap, so every 2-vector
    Parseval frame of the line still sums to 1.  Three-vector frames
    hitting the swapped points break it, which pins the degree at 2.
    """
    eps = float(eps)
    if not (0.0 < eps < 1.0 / 3.0):
        raise BadEpsilonError(f"epsilon must be in (0, 1/3), got {eps}")

    def swapped(t: float) -> complex:
        if abs(t - eps) <= 1e-12:
            return complex(1.0 - eps)
        if abs(t - (1.0 - eps)) <= 1e-12:
            return complex(eps)
        return complex(t)

    def fn(x: np.ndarray) -> list[complex]:
        return [swapped(t) for t in _squared_norms(x).tolist()]

    return GleasonFn(
        dim=1,
        field="R",
        kind="epsilon1d",
        fn=fn,
        params={"eps": eps},
    )


def gleason_from_effect_measure(
    v: Callable[[np.ndarray], float],
    dim: int,
    field: str = "C",
) -> GleasonFn:
    """Restrict an effect functional to rank-one effects.

    g(x) = v(outer(x, x)).  When v satisfies the probability axioms
    over all POVMs of some size N, the restriction is a degree-N
    Parseval frame function with weight v(identity) = 1.
    """
    def fn(x: np.ndarray) -> list[complex]:
        return [complex(v(e)) for e in _projections(x)]

    return GleasonFn(
        dim=dim,
        field=field,
        kind="effect_measure",
        fn=fn,
        params={},
    )


# ---------------------------------------------------------------------------
# verifiers


def _frame_sum(g: GleasonFn, block) -> complex:
    # The frame sum: g over the rows of a block, added in row order.
    total = 0.0 + 0.0j
    for value in g.values(block).tolist():
        total += value
    return total


def _frame_sum_verdict(
    g: GleasonFn,
    frames: list[Frame],
    n: int | None,
    seed: int,
    tol: float,
) -> VerificationReport:
    sums = [_frame_sum(g, f.vectors) for f in frames]
    arr = np.asarray(sums, dtype=np.complex128)
    re = arr.real
    im = arr.imag
    deviation = math.hypot(
        float(re.max() - re.min()), float(im.max() - im.min())
    )
    lo = int(np.argmin(re))
    hi = int(np.argmax(re))
    return VerificationReport(
        kind=g.kind,
        dim=g.dim,
        field=g.field,
        n=n,
        trials=len(frames),
        seed=seed,
        tol=tol,
        mean_weight=_demote_scalar(complex(arr.mean())),
        max_deviation=deviation,
        passed=deviation <= tol,
        witness_low=Witness(frames[lo], _demote_scalar(complex(arr[lo]))),
        witness_high=Witness(frames[hi], _demote_scalar(complex(arr[hi]))),
    )


def verify_onb_gleason(
    g: GleasonFn, trials: int = 100, seed: int = 0, tol: float | None = None
) -> VerificationReport:
    """Sum g over random orthonormal bases and measure the spread.

    In dimension 2 over the reals the bases are uniform rotations of
    the coordinate basis, which sweeps the whole space of real bases
    up to signs; otherwise bases come from Gram-Schmidt on Gaussian
    vectors.  Passing means the spread of sums stays within tol.
    """
    tol = resolve_tol(tol)
    trials = _integer(trials, "trials", 1, _NO_TRIAL)
    rng = SplitMix64(seed)
    frames: list[Frame] = []
    for _ in range(trials):
        if g.dim == 2 and g.field == "R":
            theta = _TWO_PI * rng.uniform()
            c, s = math.cos(theta), math.sin(theta)
            f = Frame(np.array([[c, s], [-s, c]]), "R")
        else:
            f = random_onb(g.dim, seed=rng.u64(), field=g.field)
        frames.append(f)
    return _frame_sum_verdict(g, frames, None, seed, tol)


def _parseval_specimens(dim: int, n: int, field: str, rng: SplitMix64) -> list[Frame]:
    specimens = [with_zeros(standard_onb(dim, field), n - dim)]
    big = random_onb(n, seed=rng.u64(), field=field)
    specimens.append(Frame(big.vectors[:, :dim], field))
    if field == "C":
        specimens.append(harmonic_frame(dim, n))
    return specimens


def verify_parseval_gleason(
    g: GleasonFn,
    n: int,
    trials: int = 100,
    seed: int = 0,
    tol: float | None = None,
) -> VerificationReport:
    """Sum g over n-vector Parseval frames and measure the spread.

    The sample always leads with structured frames that randomized
    sampling would essentially never find: a zero-padded orthonormal
    basis, the first-coordinates projection of a random orthonormal
    basis of the big space, and (over C) a harmonic frame.  The rest
    are canonical Parseval frames of Gaussian vectors.
    """
    tol = resolve_tol(tol)
    n = _integer(n, "frame size")
    trials = _integer(trials, "trials", 1, _NO_TRIAL)
    if n < g.dim:
        raise BadCardinalityError(
            f"frame size {n} is below the dimension {g.dim}"
        )
    rng = SplitMix64(seed)
    frames = _parseval_specimens(g.dim, n, g.field, rng)[:trials]
    while len(frames) < trials:
        frames.append(random_parseval(g.dim, n, seed=rng.u64(), field=g.field))
    return _frame_sum_verdict(g, frames, n, seed, tol)


def fit_quadratic(
    g: GleasonFn, samples: int = 500, seed: int = 0
) -> FitResult:
    """Recover the unique quadratic form matching g on probe vectors,
    then measure how well it explains g on random ball points.

    The operator is fixed by polarization: diagonal entries from the
    basis directions, off-diagonal entries from (e_j + e_k)/sqrt(2)
    and, over C, (e_j + i e_k)/sqrt(2).  The residual is the largest
    |g(x) - <A x, x>| over ``samples`` seeded points, alternating
    sphere and interior.  Verdict thresholds: at most 1e-9 is
    "quadratic", above 1e-6 is "not_quadratic", between the two is
    "indeterminate".  These fixed thresholds are the whole verdict rule.

    The reported ``operator`` is complex128.  Its imaginary parts are
    zeroed when the largest is at most 1e-12 * max(1, largest |real
    part|), the rule that makes ``weight`` real; only that copy drops
    them.  ``residual``, ``weight`` and ``verdict`` come from the matrix
    before this demotion.
    """
    samples = _integer(samples, "samples", 1, "need at least one sample point")
    d = g.dim
    a = np.zeros((d, d), dtype=np.complex128)

    basis = np.eye(d)
    for k in range(d):
        a[k, k] = complex(g(basis[k]))
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    for j in range(d):
        for k in range(j + 1, d):
            plus = (basis[j] + basis[k]) * inv_sqrt2
            s = 2.0 * complex(g(plus)) - a[j, j] - a[k, k]
            if g.field == "C":
                mixed = (basis[j] + 1j * basis[k]) * inv_sqrt2
                dterm = (2.0 * complex(g(mixed)) - a[j, j] - a[k, k]) / 1j
                a[j, k] = (s + dterm) / 2.0
                a[k, j] = (s - dterm) / 2.0
            else:
                a[j, k] = s / 2.0
                a[k, j] = s / 2.0

    real = _is_roundoff(np.abs(a.imag).max(), np.abs(a.real).max())
    operator = a.real.astype(np.complex128) if real else a

    # Each direction is drawn and its norm taken one at a time, since
    # a resample changes the stream; scaling onto the unit sphere and
    # then by the radius runs once on the whole block.
    rng = SplitMix64(seed)
    directions, norms, radii = [], [], []
    for i in range(samples):
        direction, norm = _direction(rng, d, g.field)
        directions.append(direction)
        norms.append(norm)
        radii.append(1.0 if i % 2 == 0 else rng.uniform() ** (1.0 / d))
    unit = np.array(directions) / np.array(norms)[:, None]
    points = np.array(radii)[:, None] * unit
    residual = 0.0
    for x, value in zip(points, g.values(points).tolist()):
        predicted = complex(np.vdot(x, a @ x))
        residual = max(residual, abs(value - predicted))

    if residual <= 1e-9:
        verdict = "quadratic"
    elif residual <= 1e-6:
        verdict = "indeterminate"
    else:
        verdict = "not_quadratic"
    return FitResult(
        operator=operator,
        weight=_demote_scalar(complex(np.trace(a))),
        residual=residual,
        verdict=verdict,
        samples=samples,
        seed=seed,
    )


def homogeneity_check(
    g: GleasonFn,
    samples: int = 200,
    seed: int = 0,
    tol: float | None = None,
) -> ScalingReport:
    """Spot-check g(alpha x) = |alpha|^2 g(x) on random scalings.

    Points are sampled in the ball and scalars inside the unit disc
    (interval over R), so the scaled point stays in the domain.
    """
    tol = resolve_tol(tol)
    samples = _integer(samples, "samples", 1, "need at least one sample")
    rng = SplitMix64(seed)
    d = g.dim
    points = []
    alphas = []
    for _ in range(samples):
        direction, norm = _direction(rng, d, g.field)
        x = (rng.uniform() ** (1.0 / d)) * direction / norm
        if g.field == "C":
            phase = _TWO_PI * rng.uniform()
            alpha = math.sqrt(rng.uniform()) * complex(
                math.cos(phase), math.sin(phase)
            )
        else:
            alpha = 2.0 * rng.uniform() - 1.0
        points.append(x)
        alphas.append(alpha)
    scaled = g.values(np.array([al * x for al, x in zip(alphas, points)]))
    at_x = g.values(np.array(points))
    worst = 0.0
    witness: dict | None = None
    for x, alpha, lhs, base in zip(
        points, alphas, scaled.tolist(), at_x.tolist()
    ):
        rhs = abs(alpha) ** 2 * base
        dev = abs(lhs - rhs)
        if dev > worst:
            worst = dev
            witness = {"x": x.astype(np.complex128), "alpha": complex(alpha),
                       "lhs": lhs, "rhs": rhs}
    passed = worst <= tol
    return ScalingReport(
        samples=samples,
        seed=seed,
        max_deviation=worst,
        passed=passed,
        witness=None if passed else witness,
    )


def quadratic_zero_count_s1(a) -> int | float:
    """Number of zeros on the unit circle of the form x -> x^T A x for
    real symmetric 2x2 A, counting antipodes separately.

    Writing the restriction as m + R cos(2 theta - phi), the count is
    0, 2, 4, or infinity according to |m| > R, |m| = R != 0, |m| < R,
    or m = R = 0.  Returns ``math.inf`` for the identically-zero form.
    A must be real and pass the Hermitian check of :mod:`framelab.linalg`.
    """
    mat = linalg._as_matrix(a)
    if mat.shape != (2, 2):
        raise NotSquareError(f"need a 2x2 matrix, got shape {mat.shape}")
    linalg._hermitian_part(mat, 1e-12)
    mat = linalg._field_array(
        mat, "R", "matrix", imaginary="matrix must be real"
    )
    mean = (mat[0, 0] + mat[1, 1]) / 2.0
    amp = math.hypot((mat[0, 0] - mat[1, 1]) / 2.0, (mat[0, 1] + mat[1, 0]) / 2.0)
    if mean == 0.0 and amp == 0.0:
        return math.inf
    if abs(mean) > amp:
        return 0
    if abs(mean) < amp:
        return 4
    return 2


def degree_ladder_experiment(
    g: GleasonFn,
    n0: int,
    n1: int,
    trials: int = 50,
    seed: int = 0,
    tol: float | None = None,
) -> LadderReport:
    """Mean frame sums of g for each frame size N in n0..n1.

    For a frame function of every degree at once whose value at zero
    is c, consecutive weights differ by exactly c, because a degree-N
    frame function extends to degree N + 1 by absorbing one zero
    vector.  ``increments_ok`` records whether the measured weight
    increments match g(0) within tol.  Requires n0 >= dim + 2.
    """
    tol = resolve_tol(tol)
    n0 = _integer(n0, "ladder start")
    n1 = _integer(n1, "ladder end")
    trials = _integer(trials, "trials", 1, _NO_TRIAL)
    if n0 < g.dim + 2:
        raise BadCardinalityError(
            f"ladder starts at dim + 2 = {g.dim + 2}, got {n0}"
        )
    if n1 < n0:
        raise BadCardinalityError(f"empty ladder: {n0}..{n1}")
    rng = SplitMix64(seed)
    g0 = complex(g(np.zeros(g.dim))).real

    degrees: list[int] = []
    weights: list[float] = []
    passed: list[bool] = []
    for n in range(n0, n1 + 1):
        report = verify_parseval_gleason(
            g, n, trials=trials, seed=rng.u64(), tol=tol
        )
        degrees.append(n)
        weights.append(complex(report.mean_weight).real)
        passed.append(report.passed)
    increments = [weights[i + 1] - weights[i] for i in range(len(weights) - 1)]
    increments_ok = all(abs(inc - g0) <= tol for inc in increments)
    return LadderReport(
        kind=g.kind,
        dim=g.dim,
        degrees=degrees,
        weights=weights,
        passed=passed,
        g_at_zero=g0,
        increments=increments,
        increments_ok=increments_ok,
        trials=trials,
        seed=seed,
        tol=tol,
    )


def weight_trace_experiment(
    dim: int,
    n: int,
    trials: int = 200,
    seed: int = 0,
    tol: float | None = None,
) -> WeightTraceReport:
    """Sum random quadratic forms over random n-vector Parseval frames
    and compare each sum with the trace of the operator.

    Trials alternate complex and real fields, complex first.  Passing
    means every sum is within tol of its trace.
    """
    tol = resolve_tol(tol)
    trials = _integer(trials, "trials", 1, _NO_TRIAL)
    dim, n = _frame_size(dim, n)
    rng = SplitMix64(seed)
    worst = 0.0
    for t in range(trials):
        field = "C" if t % 2 == 0 else "R"
        a = linalg.random_hermitian(dim, seed=rng.u64(), field=field)
        f = random_parseval(dim, n, seed=rng.u64(), field=field)
        total = _frame_sum(quadratic_gleason(a), f.vectors)
        worst = max(worst, abs(total - complex(np.trace(a))))
    return WeightTraceReport(
        dim=dim,
        n=n,
        trials=trials,
        seed=seed,
        tol=tol,
        max_deviation=worst,
        passed=worst <= tol,
    )


def counterexample_battery(
    g: GleasonFn,
    n: int | None = None,
    trials: int = 100,
    samples: int = 500,
    seed: int = 0,
    tol: float | None = None,
) -> CounterexampleReport:
    """Run the basis and n-vector Parseval verifiers, the quadratic fit
    and the homogeneity check on g; g is a counterexample when the fit
    says "not_quadratic" or a check fails.

    ``n`` defaults to dim + 1.  Random sampling cannot see a
    measure-zero defect, so the epsilon swap is also summed over its
    explicit three-vector frame, which must give the Parseval weight.
    """
    tol = resolve_tol(tol)
    n = g.dim + 1 if n is None else _integer(n, "frame size")
    onb = verify_onb_gleason(g, trials=trials, seed=seed, tol=tol)
    parseval = verify_parseval_gleason(g, n, trials=trials, seed=seed, tol=tol)
    fit = fit_quadratic(g, samples=samples, seed=seed)
    homogeneity = homogeneity_check(g, samples=samples, seed=seed, tol=tol)
    is_counterexample = fit.verdict == "not_quadratic" or not (
        onb.passed and parseval.passed and homogeneity.passed
    )
    witness = None
    if g.kind == "epsilon1d":
        eps = float(g.params["eps"])
        entries = [math.sqrt(eps), math.sqrt(eps), math.sqrt(1.0 - 2.0 * eps)]
        total = _frame_sum(g, np.array(entries)[:, None]).real
        weight = complex(parseval.mean_weight).real
        witness = {"vectors": entries, "sum": total, "degree2_weight": weight}
        is_counterexample = is_counterexample or abs(total - weight) > tol
    return CounterexampleReport(
        kind=g.kind,
        dim=g.dim,
        field=g.field,
        params=dict(g.params),
        onb=onb,
        parseval_n=n,
        parseval=parseval,
        fit=fit,
        homogeneity=homogeneity,
        explicit_degree3=witness,
        is_counterexample=is_counterexample,
    )
