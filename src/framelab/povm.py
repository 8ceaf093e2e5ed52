"""Positive operator-valued measures and their frame correspondence.

Every Parseval frame yields a POVM by taking the rank-one projection
of each vector, or coarser effects by summing projections over a
partition of the index set, by the rank-one and c I rules of
:mod:`framelab.frames`.  Conversely any POVM factors through a
Parseval frame by eigendecomposing each effect and keeping the scaled
eigenvectors with nonnegligible eigenvalues.  The probability rule
p_j = trace(rho E_j) then turns density matrices into probability
vectors, and :func:`check_generalized_measure` probes whether an
arbitrary effect functional behaves like such a rule.
:func:`busch_experiment` and :func:`born_experiment` run those checks
on random states and random grouped POVMs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import frames, linalg
from .errors import (
    BadFamilySizeError,
    BadPartitionError,
    DimMismatchError,
    InputError,
    NotHermitianError,
    NotPovmError,
    NotParsevalError,
    NotSquareError,
)
from .frames import Frame, random_parseval
from .linalg import resolve_tol
from .rng import _NO_TRIAL, SplitMix64, _integer


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
    that are valid by construction its k eigendecompositions.
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


def _effect_eig(a, tol: float) -> linalg.HermitianEig | None:
    # Eigendecomposition of the Hermitian part of an effect, or None
    # when ``a`` is not square, not Hermitian or has a spectrum
    # outside [0, 1].
    try:
        eig = linalg.hermitian_eig(a, tol)
    except (NotSquareError, NotHermitianError):
        return None
    values = eig.eigenvalues
    if values[0] >= -tol and values[-1] <= 1.0 + tol:
        return eig
    return None


def _measured_axioms(
    p: Povm, tol: float
) -> tuple[list[linalg.HermitianEig | None], float]:
    # The POVM axioms, measured: each effect's eigendecomposition (None
    # for an invalid effect) and the c I deviation of the effects' sum.
    eigs = [_effect_eig(p.effects[j], tol) for j in range(len(p))]
    return eigs, frames._identity_deviation(np.sum(p.effects, axis=0))


def _checked_eigs(p: Povm, tol: float) -> list[linalg.HermitianEig]:
    # The POVM axioms, judged; returns each effect's eigendecomposition
    # for reuse.
    eigs, dev = _measured_axioms(p, tol)
    for j, eig in enumerate(eigs):
        if eig is None:
            raise NotPovmError(f"effect {j} is not a valid effect")
    if dev > tol:
        raise NotPovmError(
            f"effects sum to identity only within {dev:.3e} (allowed {tol:.3e})"
        )
    return eigs


def is_effect(e, tol: float | None = None) -> bool:
    """True when ``e`` passes the Hermitian check of :mod:`framelab.linalg`
    and its Hermitian part has spectrum inside [0, 1], both within tol."""
    return _effect_eig(e, resolve_tol(tol)) is not None


def check_povm(p: Povm, tol: float | None = None) -> None:
    """Raise :class:`NotPovmError` unless ``p`` satisfies the axioms.

    Checks that every effect is Hermitian with spectrum in [0, 1]
    within tol, and that the effects sum to the identity within tol.
    """
    _checked_eigs(p, resolve_tol(tol))


def analyze_povm(p: Povm, tol: float | None = None) -> PovmReport:
    """Measure the axioms of :func:`check_povm` without raising:
    whether every effect passes :func:`is_effect`, and the largest
    entry of the effects' sum minus the identity."""
    tol = resolve_tol(tol)
    eigs, dev = _measured_axioms(p, tol)
    effects_valid = all(eig is not None for eig in eigs)
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

    Each effect is eigendecomposed and contributes one vector
    sqrt(lambda) v per eigenpair, in ascending eigenvalue order.
    Eigenvalues below tol contribute nothing; with ``pad_zeros`` they
    contribute explicit zero vectors instead, so every effect yields
    exactly d vectors.  Either way ``dropped`` counts them.

    Returns the frame, the partition mapping each effect to the
    0-based rows it produced, and the dropped count.  The frame is
    Parseval up to the accuracy of the input POVM, and real exactly
    when every effect's eigenvectors are, by the demotion rule of
    :mod:`framelab.linalg`.
    """
    tol = resolve_tol(tol)
    d = p.dim
    eigs = _checked_eigs(p, tol)
    field = "R" if all(np.isrealobj(vecs) for _, vecs in eigs) else "C"
    rows: list[np.ndarray] = []
    partition: list[list[int]] = []
    dropped = 0
    for values, vecs in eigs:
        group: list[int] = []
        for i in range(d):
            lam = float(values[i])
            if lam < tol:
                dropped += 1
                if not pad_zeros:
                    continue
                vec = np.zeros(d)
            else:
                vec = np.sqrt(lam) * vecs[:, i]
            group.append(len(rows))
            rows.append(vec)
        partition.append(group)

    return FrameFromPovm(Frame(np.array(rows), field), partition, dropped)


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
    probs = np.empty(len(p), dtype=np.float64)
    for j in range(len(p)):
        t = complex(np.trace(r @ p.effects[j]))
        if not linalg._negligible(t.imag, t.real, tol):
            raise InputError(
                f"probability {j} has imaginary residue {t.imag:.3e}; "
                "state or effects are far from Hermitian"
            )
        probs[j] = t.real
    return probs


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


def _random_povm(rng: SplitMix64, d: int, k: int, field: str) -> Povm:
    # Group a random Parseval frame into k effects, empty groups allowed.
    # The frame is Parseval by construction, so the grouping checks it
    # at the default tolerance; a caller's tol judges only its verdict.
    n = max(d, k) + rng.below(d + 2)
    f = random_parseval(d, n, seed=rng.u64(), field=field)
    groups: list[list[int]] = [[] for _ in range(k)]
    for i in range(n):
        groups[rng.below(k)].append(i)
    return povm_from_frame_grouped(f, groups)


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
    to 1 across each POVM.

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

    for _ in range(trials):
        k = n_family + rng.below(3)
        p = _random_povm(rng, d, k, field)
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
    mins, sum_devs = [], []
    for _ in range(trials):
        rho = random_density(dim, seed=rng.u64())
        k = dim + 2 + rng.below(3)
        probs = born_probabilities(rho, _random_povm(rng, dim, k, "C"))
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
