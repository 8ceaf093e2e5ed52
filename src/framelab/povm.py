"""Positive operator-valued measures and their frame correspondence.

Every Parseval frame yields a POVM by taking the rank-one projection
of each vector, or coarser effects by summing projections over a
partition of the index set, by the rank-one rule of
:mod:`framelab.linalg` and the c I rule of :mod:`framelab.frames`.
Conversely any POVM factors through a Parseval frame: any factor
E = sum_j x_j x_j* of each effect gives one, and
:func:`frame_from_povm` takes the rows of the pivoted factorization of
:mod:`framelab.linalg`, so no effect is eigendecomposed.  The same
factorization, run on E + tol I and (1 + tol) I - E, decides whether E
is an effect; a POVM's effects are checked and factored together, as
one stack of each dtype.  The probability rule p_j = trace(rho E_j)
then turns density matrices into probability vectors, and
:func:`check_generalized_measure` probes whether an arbitrary effect
functional behaves like such a rule.
:func:`busch_experiment` and :func:`born_experiment` run those checks
on random states and random grouped POVMs, whose frames of mixed
sizes come from the random-frame stream of :mod:`framelab.frames`,
each trial's plan the draw of its frame.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import frames, linalg
from .errors import (
    BadFamilySizeError,
    BadPartitionError,
    DimMismatchError,
    InputError,
    NotPovmError,
    NotParsevalError,
    NotSquareError,
)
from .frames import Frame, random_parseval
from .linalg import resolve_tol
from .rng import _NO_TRIAL, SplitMix64, _integer

# Bound here though every frame draw of this module is stacked:
# perfbench's tracer wraps random_parseval at each module that imports
# it, and its self-test reads this binding.
_UNSTACKED_DRAW = random_parseval


def _partition(groups) -> list[list[int]]:
    # Groups of indices by the integer rule; their range is the caller's.
    try:
        return [[_integer(i, "partition index") for i in g] for g in groups]
    except TypeError:  # a partition or a group that is not iterable
        raise InputError("partition must be a list of index lists") from None


@dataclass(frozen=True, eq=False)
class Povm:
    """A finite POVM on C^d.

    Parameters
    ----------
    effects : np.ndarray
        Shape (k, d, d), one Hermitian positive effect per leading
        index, summing to the identity.
    partition : list of list of int, optional
        When the POVM came from grouping a frame, the 0-based index
        groups, in effect order.  ``None`` for ungrouped POVMs.

    Notes
    -----
    Shapes and the array rule of :mod:`framelab.linalg` (numeric and
    finite) are enforced here; the numeric POVM axioms are not.
    :func:`check_povm` checks them, and :func:`frame_from_povm` runs the
    same check before it factors.  Nothing else does:
    :func:`framelab.serialize.povm_from_json` checks only shapes and the
    array rule, and :func:`born_probabilities` trusts its effects, so
    call :func:`check_povm` on a loaded POVM before relying on the
    axioms.  Keeping the numeric check explicit spares constructions
    that are valid by construction its factorization of 3k matrices:
    E + tol I, (1 + tol) I - E and E for each of the k effects, in one
    stacked pass per dtype.
    """

    effects: np.ndarray
    partition: list[list[int]] | None = None

    def __post_init__(self):
        a = np.asarray(self.effects)
        if a.ndim != 3 or a.shape[1] != a.shape[2]:
            raise InputError(
                f"effects must have shape (k, d, d), got {a.shape}"
            )
        if a.shape[0] < 1:
            raise InputError("a POVM needs at least one effect")
        if a.shape[1] < 1:
            raise InputError("effects must be at least 1 x 1, got 0 x 0")
        a = linalg._field_array(
            a, "C", "effects", non_finite="effects contain non-finite entries"
        )
        object.__setattr__(self, "effects", a)
        if self.partition is not None:
            part = _partition(self.partition)
            if len(part) != a.shape[0]:
                raise InputError(
                    "partition length does not match the number of effects"
                )
            object.__setattr__(self, "partition", part)

    @property
    def dim(self) -> int:
        return int(self.effects.shape[1])

    def __len__(self) -> int:
        return int(self.effects.shape[0])


class FrameFromPovm(NamedTuple):
    frame: Frame
    partition: list[list[int]]
    dropped: int


class MeasureCheckReport(NamedTuple):
    """Outcome of probing a functional against the probability axioms."""

    trials: int
    n_family: int
    seed: int
    identity_deviation: float
    range_min: float
    range_max: float
    additivity_deviation: float
    passed: bool
    witness: Povm | None


class PovmReport(NamedTuple):
    """The axioms :func:`check_povm` enforces, measured on one POVM."""

    dim: int
    num_effects: int
    sum_deviation: float
    effects_valid: bool
    valid: bool
    tol: float


class BuschReport(NamedTuple):
    """Worst departures of trace-rule functionals from the probability
    axioms over random states."""

    dim: int
    n_family: int
    states: int
    trials: int
    seed: int
    tol: float
    max_identity_deviation: float
    max_additivity_deviation: float
    range_min: float
    range_max: float
    passed: bool


class BornReport(NamedTuple):
    """Worst Born-rule probability vector over random states."""

    dim: int
    trials: int
    seed: int
    tol: float
    min_probability: float
    max_sum_deviation: float
    passed: bool


def _effect_rule(
    a: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # The effect rule over a (k, d, d) stack of _as_matrix results:
    # effect j is valid when it passes the Hermitian check of
    # framelab.linalg and, for its Hermitian part E, real by the demotion
    # rule, E + tol I and (1 + tol) I - E are positive definite by the
    # pivoted factorization.  Returns each effect's validity and the rank
    # and rows of E factored at stop tol, the rows float64 when every E
    # is real; the rows of an invalid effect mean nothing.
    dev, allowed, herm = linalg._hermitian_parts(a, tol)
    real = ~herm.imag.any(axis=(1, 2))
    valid = ~(dev > allowed)
    rank = np.empty(len(a), dtype=np.intp)
    rows = np.empty(a.shape, np.float64 if real.all() else np.complex128)
    _factor_parts(herm.real, real, tol, valid, rank, rows)
    _factor_parts(herm, ~real, tol, valid, rank, rows)
    return valid, rank, rows


def _factor_parts(parts, group, tol, valid, rank, rows) -> None:
    # The share of _effect_rule of the effects in ``group``, whose parts
    # have one dtype, written into its outputs: E + tol I, (1 + tol) I - E
    # and E of each part E, factored as one stack at stops 0, 0 and tol.
    k = np.count_nonzero(group)
    if not k:
        return
    e = parts[group]
    d = e.shape[1]
    eye = np.eye(d)
    ranks, factors = linalg._pivoted_rows(
        np.concatenate([e + tol * eye, (1.0 + tol) * eye - e, e]),
        np.repeat([0.0, 0.0, tol], k))
    valid[group] &= (ranks[:k] == d) & (ranks[k:2 * k] == d)
    rank[group] = ranks[2 * k:]
    rows[group] = factors[2 * k:]


def _measured_axioms(
    p: Povm, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    # The POVM axioms, measured: the effect rule's validity, rank and
    # rows of each effect, and the c I deviation of the effects' sum.
    return (*_effect_rule(p.effects, tol),
            frames._identity_deviation(np.sum(p.effects, axis=0)))


def _checked_rows(p: Povm, tol: float) -> tuple[np.ndarray, np.ndarray]:
    # The POVM axioms, judged; returns the rank and rows of each effect.
    valid, rank, rows, dev = _measured_axioms(p, tol)
    if not valid.all():
        raise NotPovmError(f"effect {np.argmin(valid)} is not a valid effect")
    if dev > tol:
        raise NotPovmError(
            f"effects sum to identity only within {dev:.3e} (allowed {tol:.3e})"
        )
    return rank, rows


def is_effect(e, tol: float | None = None) -> bool:
    """True when ``e`` passes the Hermitian check of :mod:`framelab.linalg`
    and its Hermitian part E has spectrum inside [0, 1] within tol: both
    E + tol I and (1 + tol) I - E factor with positive pivots."""
    tol = resolve_tol(tol)
    try:
        m = linalg._as_matrix(e)
    except NotSquareError:
        return False
    return bool(_effect_rule(m[None], tol)[0][0])


def check_povm(p: Povm, tol: float | None = None) -> None:
    """Raise :class:`NotPovmError` unless ``p`` satisfies the axioms.

    Checks that every effect passes :func:`is_effect` at tol, and that
    the effects sum to the identity within tol.
    """
    _checked_rows(p, resolve_tol(tol))


def analyze_povm(p: Povm, tol: float | None = None) -> PovmReport:
    """Measure the axioms of :func:`check_povm` without raising:
    whether every effect passes :func:`is_effect`, and the largest
    entry of the effects' sum minus the identity."""
    tol = resolve_tol(tol)
    valid, _, _, dev = _measured_axioms(p, tol)
    effects_valid = bool(valid.all())
    return PovmReport(
        dim=p.dim,
        num_effects=len(p),
        sum_deviation=dev,
        effects_valid=effects_valid,
        valid=effects_valid and dev <= tol,
        tol=tol,
    )


def _rank_one_effects(f: Frame, tol: float) -> np.ndarray:
    dev = frames._identity_deviation(frames._checked_operator(f))
    if dev > tol:
        raise NotParsevalError(f"not a Parseval frame: its operator is off the"
                               f" identity by {dev:.3e} (allowed {tol:.3e})")
    return frames._projections(f.vectors)


def povm_from_frame(f: Frame, tol: float | None = None) -> Povm:
    """One rank-one effect per frame vector of a Parseval frame.

    Effect j is the outer product of vector j with itself, so the sum
    over j reproduces the frame operator, which is the identity.  A
    frame operator that overflows raises :class:`InputError`.
    """
    return Povm(_rank_one_effects(f, resolve_tol(tol)))


def povm_from_frame_grouped(
    f: Frame, partition: Sequence[Sequence[int]], tol: float | None = None
) -> Povm:
    """Effects obtained by summing rank-one projections over groups.

    ``partition`` must split the 0-based index range of the frame into
    disjoint groups covering every index; empty groups are allowed and
    produce zero effects.  A frame operator that overflows raises
    :class:`InputError`.
    """
    tol = resolve_tol(tol)
    n = len(f)
    groups = _partition(partition)
    seen: set[int] = set()
    for g in groups:
        for i in g:
            if i < 0 or i >= n:
                raise BadPartitionError(f"index {i} outside 0..{n - 1}")
            if i in seen:
                raise BadPartitionError(f"index {i} appears twice")
            seen.add(i)
    if len(seen) != n:
        missing = sorted(set(range(n)) - seen)
        raise BadPartitionError(f"indices not covered: {missing}")

    rank_one = _rank_one_effects(f, tol)
    effects = np.zeros((len(groups), f.dim, f.dim), dtype=np.complex128)
    for j, g in enumerate(groups):
        for i in g:
            effects[j] += rank_one[i]
    return Povm(effects, partition=groups)


def frame_from_povm(
    p: Povm, tol: float | None = None, pad_zeros: bool = False
) -> FrameFromPovm:
    """Factor a POVM through a Parseval frame.

    Each effect E is factored by the pivoted factorization of
    :mod:`framelab.linalg`, E = sum_j x_j x_j*, and contributes its
    rows x_j in pivot order: the largest remaining diagonal entry is
    eliminated first, and the factorization stops once every remaining
    diagonal entry is at most tol.  The d - rank null directions left
    contribute nothing; with ``pad_zeros`` they contribute zero vectors
    after the effect's rows instead, so every effect yields exactly d
    vectors.  Either way ``dropped`` counts them.  The effects are
    factored in the same stacked pass as the check of
    :func:`check_povm`, which factors E + tol I and (1 + tol) I - E:
    one pass for all effects whose Hermitian parts are real, and one
    for the rest.

    Returns the frame, the partition mapping each effect to the
    0-based rows it produced, and the dropped count.  The frame is
    Parseval up to the accuracy of the input POVM, and real exactly
    when every effect's Hermitian part is, by the demotion rule of
    :mod:`framelab.linalg`.
    """
    tol = resolve_tol(tol)
    d = p.dim
    rank, rows = _checked_rows(p, tol)
    field = "R" if np.isrealobj(rows) else "C"
    dropped = int(d * len(p) - rank.sum())
    if pad_zeros:
        rank[:] = d
    ends = [0, *itertools.accumulate(rank.tolist())]
    partition = [list(range(a, b)) for a, b in zip(ends, ends[1:])]
    kept = np.arange(d) < rank[:, None]
    return FrameFromPovm(Frame(rows[kept], field), partition, dropped)


def born_probabilities(rho, p: Povm, tol: float | None = None) -> np.ndarray:
    """Outcome distribution trace(rho E_j) of a state under a POVM.

    Parameters
    ----------
    rho : array_like
        Density matrix (Hermitian, unit trace, positive).  Only its
        shape and the array rule of :mod:`framelab.linalg` are checked.
    p : Povm
        The measurement.

    Returns
    -------
    np.ndarray
        Real probabilities in effect order.  A trace whose imaginary
        residue is NaN or exceeds ``tol * max(1, |real part|)`` raises
        ``InputError``; Hermitian inputs leave only roundoff there.
    """
    tol = resolve_tol(tol)
    r = np.asarray(rho)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise DimMismatchError(f"state must be square, got shape {r.shape}")
    if r.shape[0] != p.dim:
        raise DimMismatchError(
            f"state dimension {r.shape[0]} does not match POVM dimension {p.dim}"
        )
    r = linalg._field_array(r, "C", "state")
    traces = np.trace(r @ p.effects, axis1=1, axis2=2)
    for j, t in enumerate(traces.tolist()):
        if not linalg._negligible(t.imag, t.real, tol):
            raise InputError(
                f"probability {j} has imaginary residue {t.imag:.3e}; "
                "state or effects are far from Hermitian"
            )
    return traces.real.copy()


def random_density(d: int, seed: int = 0, field: str = "C") -> np.ndarray:
    """Random density matrix G G* / trace(G G*) from a Gaussian G."""
    d = _integer(d, "dimension", 1)
    g = SplitMix64(seed).field_gaussians((d, d), field).astype(np.complex128)
    rho = g @ g.conj().T
    return rho / float(np.trace(rho).real)


def _functional_value(
    v: Callable[[np.ndarray], float], e, tol: float
) -> float:
    # v(e), which must be finite: min, max and comparisons pass over NaN.
    # A complex value counts as real when its imaginary part passes the
    # mixed-relative comparison of linalg, as a Born trace's does.
    val = complex(v(e))
    re = val.real
    if not math.isfinite(re):
        raise InputError(f"effect functional is {re} at an effect")
    if val.imag and not linalg._negligible(val.imag, re, tol):
        raise InputError(
            f"effect functional has imaginary part {val.imag:.3e} "
            "at an effect"
        )
    return re


def _povm_plan(
    rng: SplitMix64, d: int, k_min: int
) -> tuple[SplitMix64, int, list[list[int]]]:
    # What one random grouped POVM draws from its caller's generator, in
    # order: k effects (k_min to k_min + 2), a Parseval frame of n
    # vectors, the generator of that frame, then the group of each of
    # its vectors, empty groups allowed.  The plan is the frame's draw
    # for the random-frame stream of frames.
    k = k_min + rng.below(3)
    n = max(d, k) + rng.below(d + 2)
    frame_rng = SplitMix64(rng.u64())
    groups: list[list[int]] = [[] for _ in range(k)]
    for i in range(n):
        groups[rng.below(k)].append(i)
    return frame_rng, n, groups


def _random_povms(
    plans: Iterable[tuple[SplitMix64, int, list[list[int]]]],
    d: int,
    field: str,
) -> Iterator[Povm]:
    # The POVM of each plan, in plan order, its frame drawn by the
    # random-frame stream of frames with the bits of random_parseval on
    # its generator.  The frames are Parseval by construction, so the
    # grouping checks them at the default tolerance; a caller's tol
    # judges only its verdict.
    for (_, _, groups), vectors in frames._random_vectors(plans, d, field):
        yield povm_from_frame_grouped(Frame(vectors, field), groups)


def check_generalized_measure(
    v: Callable[[np.ndarray], float],
    d: int,
    n_family: int,
    trials: int = 50,
    seed: int = 0,
    tol: float | None = None,
    field: str = "C",
) -> MeasureCheckReport:
    """Probe a functional on effects against the probability axioms.

    Samples ``trials`` random POVMs with at least ``n_family`` effects
    each (grouped from random Parseval frames, so zero effects and
    high-rank effects both occur) and records how far ``v`` strays
    from: v(identity) = 1, values inside [0, 1], and values summing
    to 1 across each POVM.  A failed check's ``witness`` is the first
    POVM of the largest sum deviation if that exceeds tol, else the
    first POVM with a value outside [-tol, 1 + tol], else None.

    ``n_family`` below d + 2 raises :class:`BadFamilySizeError`, since
    smaller families are too coarse for additivity over them to pin
    the functional down.  A NaN or infinite value of ``v`` raises
    :class:`InputError`, and so does a complex one whose imaginary part
    exceeds ``tol * max(1, |real part|)``; below that it is roundoff
    and dropped.
    """
    tol = resolve_tol(tol)
    d = _integer(d, "dimension", 1)
    n_family = _integer(n_family, "family size")
    trials = _integer(trials, "trials", 1, _NO_TRIAL)
    if n_family < d + 2:
        raise BadFamilySizeError(
            f"family size {n_family} is below d + 2 = {d + 2}"
        )

    rng = SplitMix64(seed)
    eye = np.eye(d, dtype=np.complex128)
    ident_dev = abs(_functional_value(v, eye, tol) - 1.0)
    lo = float("inf")
    hi = float("-inf")
    add_dev = 0.0
    witness: Povm | None = None

    plans = (_povm_plan(rng, d, n_family) for _ in range(trials))
    for p in _random_povms(plans, d, field):
        total = 0.0
        family_bad = False
        for j in range(len(p)):
            val = _functional_value(v, p.effects[j], tol)
            total += val
            lo = min(lo, val)
            hi = max(hi, val)
            if val < -tol or val > 1.0 + tol:
                family_bad = True
        dev = abs(total - 1.0)
        if dev > add_dev:
            add_dev = dev
            if dev > tol:
                witness = p
        if family_bad and witness is None:
            witness = p

    passed = (
        ident_dev <= tol
        and lo >= -tol
        and hi <= 1.0 + tol
        and add_dev <= tol
    )
    return MeasureCheckReport(
        trials=trials,
        n_family=n_family,
        seed=seed,
        identity_deviation=ident_dev,
        range_min=lo,
        range_max=hi,
        additivity_deviation=add_dev,
        passed=passed,
        witness=None if passed else witness,
    )


def busch_experiment(
    dim: int,
    n_family: int | None = None,
    states: int = 10,
    trials: int = 20,
    seed: int = 0,
    tol: float | None = None,
) -> BuschReport:
    """Run :func:`check_generalized_measure` on the trace rule of each
    of ``states`` random density matrices and keep the worst results.

    ``n_family`` defaults to dim + 2; passing means every check passed.
    """
    tol = resolve_tol(tol)
    states = _integer(states, "states", 1, _NO_TRIAL)
    trials = _integer(trials, "trials", 1, _NO_TRIAL)
    dim = _integer(dim, "dimension", 1)
    if n_family is None:
        n_family = dim + 2
    n_family = _integer(n_family, "family size")
    rng = SplitMix64(seed)
    results = []
    for _ in range(states):
        rho = random_density(dim, seed=rng.u64())
        results.append(check_generalized_measure(
            lambda e, r=rho: float(np.trace(r @ e).real),
            dim, n_family, trials=trials, seed=rng.u64(), tol=tol,
        ))
    return BuschReport(
        dim=dim,
        n_family=n_family,
        states=states,
        trials=trials,
        seed=seed,
        tol=tol,
        max_identity_deviation=max(r.identity_deviation for r in results),
        max_additivity_deviation=max(
            r.additivity_deviation for r in results
        ),
        range_min=min(r.range_min for r in results),
        range_max=max(r.range_max for r in results),
        passed=all(r.passed for r in results),
    )


def born_experiment(
    dim: int, trials: int = 100, seed: int = 0, tol: float | None = None
) -> BornReport:
    """Born probabilities of ``trials`` random density matrices under
    random grouped POVMs of dim + 2 to dim + 4 effects.

    The POVMs are built and measured at the default tolerance, like
    those of :func:`check_generalized_measure`; passing means no
    probability is below -tol and every probability vector sums to 1
    within tol.
    """
    tol = resolve_tol(tol)
    trials = _integer(trials, "trials", 1, _NO_TRIAL)
    dim = _integer(dim, "dimension", 1)
    rng = SplitMix64(seed)
    rhos: deque[np.ndarray] = deque()

    def plans():
        # Each trial's state, then its plan, as each trial drew them.  The
        # state is drawn here, not only its seed, so that its size check
        # refuses a huge dim before the plan loops over n >= dim vectors.
        for _ in range(trials):
            rhos.append(random_density(dim, seed=rng.u64()))
            yield _povm_plan(rng, dim, dim + 2)

    mins, sum_devs = [], []
    for p in _random_povms(plans(), dim, "C"):
        probs = born_probabilities(rhos.popleft(), p)
        mins.append(float(np.min(probs)))
        sum_devs.append(abs(float(np.sum(probs)) - 1.0))
    return BornReport(
        dim=dim,
        trials=trials,
        seed=seed,
        tol=tol,
        min_probability=min(mins),
        max_sum_deviation=max(sum_devs),
        passed=min(mins) >= -tol and max(sum_devs) <= tol,
    )
