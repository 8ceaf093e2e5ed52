"""Finite frames for R^d and C^d.

A frame is stored as an (N, d) array whose rows are the vectors, plus
a field tag "R" or "C".  Real frames keep a float64 array with zero
imaginary part by construction; complex frames keep complex128.  The
frame operator of row matrix X is X^T conj(X) acting on column
vectors, its extreme eigenvalues are the optimal frame bounds, and a
frame is Parseval exactly when that operator is the identity.  The c I
rule (largest entry of |S - c I|) is written here once, for frames,
POVMs and Gabor frames, and so are the squared-norm rule (|x|^2 summed
over the last axis), the unit-modulus deviation (largest |m - 1|) and
the orthonormalization rule behind every random frame: one
Gram-Schmidt pass over a stack of Gaussian blocks, one per generator.
Its redraw rule, for a refused row of a frame and for a refused sample
direction of :mod:`framelab.gleason`, is written here once too.
Every random frame comes from one stream, which takes its draws
_STACK_PASS at a time, of any frame sizes, and yields each with its
block; a single frame is a stream of one, and a Parseval frame's
vectors are the columns of its block.  The projections x_j x_j* of a
frame's vectors are complex128, by the rank-one rule of
:mod:`framelab.linalg`, which the updates of the pivoted factorization
there also use.

No diagnostic forms the N x N Gram matrix.  Coherence and
equiangularity stream it in row blocks of bounded size, and the frame
potential is ||S||_F^2 of the d x d frame operator S.  The streaming
pass keeps the largest pair magnitude, and the smallest and the sum
only until their spread passes the tolerance, which rules out a
common angle; it ends there when the largest is not wanted either, as
for :func:`is_equiangular` and a frame that is not unit-norm.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import linalg
from .errors import (
    BadCardinalityError,
    BadSelectorError,
    InputError,
    NotAFrameError,
    NotUnitNormError,
    SingularOrIndefiniteError,
    TooFewVectorsError,
)
from .linalg import resolve_tol
from .rng import SplitMix64, _draw_array, _field_runs, _integer

# Bytes of one row block of the Gram matrix in the streaming pass.
_GRAM_BLOCK_BYTES = 2 << 20
# Random frames are drawn this many at a time, so a stream of many
# frames holds one pass of blocks and words.
_STACK_PASS = 64
# A drawn row or direction of norm at most this is drawn again.
_NORM_FLOOR = 1e-8


@dataclass(frozen=True, eq=False)
class Frame:
    """An ordered finite set of vectors in R^d or C^d.

    ``vectors`` has one vector per row, checked and cast to the field
    by the array rule of :mod:`framelab.linalg`.
    """

    vectors: np.ndarray
    field: str = "C"

    def __post_init__(self):
        a = np.asarray(self.vectors)
        if a.ndim != 2:
            raise InputError(f"vectors must be a 2-d array, got ndim {a.ndim}")
        if a.shape[0] < 1 or a.shape[1] < 1:
            raise InputError(f"empty frame of shape {a.shape}")
        a = linalg._field_array(a, self.field, "frame")
        object.__setattr__(self, "vectors", a)

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])

    def __len__(self) -> int:
        return int(self.vectors.shape[0])

    def norms(self) -> np.ndarray:
        """Euclidean norm of each vector, in row order."""
        return np.sqrt(_squared_norms(self.vectors))


class FrameReport(NamedTuple):
    """Summary of the standard frame diagnostics for one frame."""

    num_vectors: int
    dim: int
    field: str
    lower_bound: float
    upper_bound: float
    is_tight: bool
    is_parseval: bool
    is_unit_norm: bool
    is_equiangular: bool
    common_angle: float | None
    coherence: float | None
    welch_bound: float | None
    frame_potential: float


def frame_operator(f: Frame) -> np.ndarray:
    """The positive operator summing the rank-one projections of f."""
    x = f.vectors
    return x.T @ x.conj()


def _projections(x: np.ndarray) -> np.ndarray:
    # The rank-one rule of linalg, on the rows of x as complex128.
    return linalg._rank_one(x.astype(np.complex128, copy=False))


def _identity_deviation(s: np.ndarray, c: float = 1.0) -> float:
    # The c I rule: the largest entry of |s - c I|.
    return float(np.abs(s - c * np.eye(len(s))).max())


def _squared_norms(x: np.ndarray) -> np.ndarray:
    # The squared-norm rule: |x|^2 summed over the last axis, a scalar
    # for one vector and one entry per row for a block.
    return np.add.reduce(np.abs(x) ** 2, axis=-1)


def _unit_deviation(m: np.ndarray) -> float:
    # The unit-modulus deviation: the largest |m - 1| over moduli m.
    return float(np.max(np.abs(m - 1.0)))


def _checked_operator(f: Frame) -> np.ndarray:
    # The frame operator of f, named when it overflows: finite vectors
    # can still overflow it, which the eigensolver's array rule would
    # reject as a "matrix" and the other diagnostics turn into inf or
    # NaN.  Every diagnostic built on the operator forms it here.
    s = frame_operator(f)
    if not np.isfinite(s).all():
        raise InputError(
            "frame operator overflows: sums of squared vector entries "
            "exceed the float64 range"
        )
    return s


# The rules behind frame_bounds and frame_potential, on an already
# formed frame operator s, so analyze_frame forms it once.


def _bounds(s: np.ndarray, tol: float | None) -> tuple[float, float]:
    values, _ = linalg.hermitian_eig(s, tol)
    return float(values[0]), float(values[-1])


def _potential(s: np.ndarray) -> float:
    return float(np.sum(np.abs(s) ** 2))


def frame_bounds(f: Frame, tol: float | None = None) -> tuple[float, float]:
    """Optimal frame bounds (A, B).

    These are the extreme eigenvalues of the frame operator.  A is
    positive exactly when the vectors span; A == B means tight.  A
    frame operator that overflows raises :class:`InputError`.
    """
    return _bounds(_checked_operator(f), tol)


def is_parseval(f: Frame, tol: float | None = None) -> bool:
    """True when the frame operator is the identity within tol.

    A frame operator that overflows raises :class:`InputError`.
    """
    return _identity_deviation(_checked_operator(f)) <= resolve_tol(tol)


def canonical_parseval(f: Frame, tol: float | None = None) -> Frame:
    """The tightening of a given frame: its canonical Parseval frame,
    obtained through the inverse square root of the frame operator.

    Each vector is hit with S^(-1/2), which preserves span and keeps
    every norm at most 1.  Raises :class:`NotAFrameError` when the
    vectors do not span, detected by an eigenvalue of S below tol, and
    :class:`InputError` when S overflows.
    """
    tol = resolve_tol(tol)
    s = _checked_operator(f)
    try:
        root = linalg.psd_inv_sqrt(s, tol)
    except SingularOrIndefiniteError:
        raise NotAFrameError(
            f"vectors do not span: smallest frame-operator eigenvalue "
            f"is {_bounds(s, tol)[0]:.3e}"
        ) from None
    return Frame(f.vectors @ root.T, f.field)


def _pair_stats(f: Frame, tol: float,
                need_max: bool = True) -> tuple[float, float | None]:
    """Max of |<x_i, x_j>| over the pairs i < j, and their common
    magnitude, the mean, when all of them lie within ``tol`` of each
    other, else None.

    One pass over row blocks of the Gram matrix, each of about
    ``_GRAM_BLOCK_BYTES`` (one row at least): the block of rows s..e-1
    is formed against columns s..N-1 only, so N x N is never held.  The
    pass keeps the running max, and the running min and sum only while
    the spread max - min stays within ``tol``: the max only grows and
    the min only falls, so a spread past ``tol`` at any block is past
    it at the end, and the angle is None.  Without ``need_max`` the
    pass ends there, and the max returned covers only the blocks seen.
    """
    x = f.vectors
    n = len(f)
    rows = min(n, max(1, _GRAM_BLOCK_BYTES // (x.itemsize * n)))
    tri = np.triu_indices(rows, 1)  # pairs inside a diagonal tile
    hi, lo, total = -math.inf, math.inf, 0.0
    equi = True
    for s in range(0, n, rows):
        e = min(s + rows, n)
        if e - s < rows:  # the short last block
            tri = np.triu_indices(e - s, 1)
        # mags[r, c] = |<x_{s+r}, x_{s+c}>|; conjugating the first
        # factor gives the conjugate inner product, of equal magnitude.
        mags = np.abs(np.conj(x[s:e]) @ x[s:].T)
        for part in (mags[:, : e - s][tri], mags[:, e - s:]):
            if part.size:
                hi = max(hi, float(part.max()))
                if equi:
                    lo = min(lo, float(part.min()))
                    total += float(part.sum())
        if equi and not hi - lo <= tol:
            if not need_max:
                return hi, None
            equi = False
    return hi, total / (n * (n - 1) / 2) if equi else None


def coherence(f: Frame, tol: float | None = None) -> float:
    """Largest pairwise inner-product magnitude of a unit-norm frame."""
    tol = resolve_tol(tol)
    if len(f) < 2:
        raise TooFewVectorsError("coherence needs at least two vectors")
    worst = _unit_deviation(f.norms())
    if worst > tol:
        raise NotUnitNormError(
            f"vector norms deviate from 1 by up to {worst:.3e}"
        )
    return _pair_stats(f, tol)[0]


def _frame_size(d, n) -> tuple[int, int]:
    # A dimension and a frame size under the integer rule, and the
    # relation N >= d between them.
    d = _integer(d, "dimension", 1)
    n = _integer(n, "frame size")
    if n < d:
        raise BadCardinalityError(f"need N >= d >= 1, got N={n}, d={d}")
    return d, n


def welch_bound(n: int, d: int) -> float:
    """Lower bound sqrt((N - d) / (d (N - 1))) on unit-norm coherence."""
    d, n = _frame_size(d, n)
    if n == d:
        return 0.0
    return math.sqrt((n - d) / (d * (n - 1.0)))


def is_equiangular(
    f: Frame, tol: float | None = None
) -> tuple[bool, float | None]:
    """Whether all pairwise inner-product magnitudes agree.

    Returns ``(True, angle)`` with the common magnitude, otherwise
    ``(False, None)``.  Norms are not checked here; combine with
    :func:`coherence` when an equiangular tight frame is the question.
    """
    tol = resolve_tol(tol)
    if len(f) < 2:
        raise TooFewVectorsError("equiangularity needs at least two vectors")
    angle = _pair_stats(f, tol, need_max=False)[1]
    return angle is not None, angle


def frame_potential(f: Frame) -> float:
    """Sum of squared magnitudes of all N^2 pairwise inner products.

    Computed as ||S||_F^2 = tr(S^2) of the d x d frame operator S,
    which equals tr(G^2) for the Gram matrix G, at O(N d^2) cost.  A
    frame operator that overflows raises :class:`InputError`.
    """
    return _potential(_checked_operator(f))


def analyze_frame(f: Frame, tol: float | None = None) -> FrameReport:
    """Run the standard diagnostics and bundle them in a report.

    A frame operator that overflows raises :class:`InputError`.
    """
    tol = resolve_tol(tol)
    s = _checked_operator(f)
    lower, upper = _bounds(s, tol)
    tight = linalg._negligible(upper - lower, upper, tol)
    parseval = _identity_deviation(s) <= tol
    unit = _unit_deviation(f.norms()) <= tol
    n, d = len(f), f.dim

    equi, angle, coh = True, None, None
    if n >= 2:
        top, angle = _pair_stats(f, tol, need_max=unit)
        equi, coh = angle is not None, top if unit else None
    welch = welch_bound(n, d) if n >= d else None

    return FrameReport(
        num_vectors=n,
        dim=d,
        field=f.field,
        lower_bound=lower,
        upper_bound=upper,
        is_tight=tight,
        is_parseval=parseval,
        is_unit_norm=unit,
        is_equiangular=equi,
        common_angle=angle,
        coherence=coh,
        welch_bound=welch,
        frame_potential=_potential(s),
    )


# ---------------------------------------------------------------------------
# constructors


def standard_onb(d: int, field: str = "R") -> Frame:
    """The coordinate basis of R^d or C^d as a frame."""
    d = _integer(d, "dimension", 1)
    return Frame(np.eye(d), field)


def _project(v: np.ndarray, rows: Sequence[np.ndarray]) -> None:
    # The projection step of the orthonormalization rule on a stack, in
    # place: row t of v projected off row t of each of ``rows`` in turn.
    # np.vecdot conjugates its first argument, as np.vdot does, and has
    # np.vdot's bits row by row.
    for u in rows:
        v -= np.vecdot(u, v)[:, None] * u


def _redraw(
    rngs: Sequence[SplitMix64], v: np.ndarray, norms: np.ndarray,
    field: str, rows: Sequence[np.ndarray],
) -> None:
    # The redraw rule, in place: row t of the stack v, of norm norms[t],
    # is refused while that norm is at most _NORM_FLOOR, and replaced by
    # a fresh draw from rngs[t], after all it has drawn, projected twice
    # off row t of each of rows.  A direction has no earlier rows.
    if min(norms.tolist()) > _NORM_FLOOR:
        return
    for t, rng in enumerate(rngs):
        own = [u[t:t + 1] for u in rows]
        while norms[t] <= _NORM_FLOOR:
            w = rng.field_gaussians(v.shape[-1], field)[None]
            _project(w, own)
            _project(w, own)
            v[t] = w[0]
            norms[t] = np.sqrt(_squared_norms(w))[0]


def _random_rows(
    draws: Iterable[tuple], k: int, field: str
) -> Iterator[tuple[tuple, np.ndarray]]:
    # The one draw of random frames.  Each draw starts with a generator
    # and a frame size n; each is yielded, in order, with its k x n block
    # of the orthonormalization rule.  Draws are taken _STACK_PASS at a
    # time, and a pass's largest block is checked first, so a block too
    # large is named by its shape before any fill.  A pass is drawn as
    # one _field_runs run with the generators of each size side by side,
    # which moves no bit, and each size's blocks are orthonormalized in
    # place as one stack of that run.
    dtype = np.complex128 if field == "C" else np.float64
    draws = iter(draws)
    while part := list(itertools.islice(draws, _STACK_PASS)):
        sizes = [draw[1] for draw in part]
        _draw_array((k, max(sizes)), dtype)
        groups = {n: [draw[0] for draw in part if draw[1] == n]
                  for n in dict.fromkeys(sizes)}
        flat = _field_runs([rng for group in groups.values() for rng in group],
                           [k * n for n, group in groups.items() for _ in group],
                           field)
        blocks, at = {}, 0
        for n, group in groups.items():
            stack = flat[at:at + len(group) * k * n].reshape(-1, k, n)
            blocks[n] = iter(_orthonormalize(group, stack, field))
            at += stack.size
        yield from zip(part, [next(blocks[n]) for n in sizes])


def _random_vectors(
    draws: Iterable[tuple], d: int, field: str
) -> Iterator[tuple[tuple, np.ndarray]]:
    # Each draw of _random_rows with the n x d vectors of its Parseval
    # frame: the columns of its d orthonormal rows.
    for draw, rows in _random_rows(draws, d, field):
        yield draw, rows.T


def _orthonormalize(
    rngs: Sequence[SplitMix64], out: np.ndarray, field: str
) -> np.ndarray:
    # Gram-Schmidt, in place, on the rows of the (len(rngs), k, m) stack
    # out of blocks drawn from rngs; returns out.  Every row is projected
    # off each earlier row twice: one pass leaves errors that grow as
    # the row loses norm to the projection, the second brings
    # orthonormality to roundoff.  The first pass is right-looking: once
    # row j is normalized, every later row of every block is projected
    # off it in one update.  The second runs row by row, and a row's
    # projections come in the same order either way, so each block gets
    # the bits it gets when its generator runs alone.  A row too close to
    # the span of the earlier ones (for continuous Gaussians, essentially
    # never) is drawn again by the redraw rule.
    rows: list[np.ndarray] = []
    for j in range(out.shape[1]):
        v = out[:, j]
        _project(v, rows)
        norms = np.sqrt(_squared_norms(v))
        _redraw(rngs, v, norms, field, rows)
        v /= norms[:, None]
        rows.append(v)
        rest = out[:, j + 1:]
        rest -= np.vecdot(v[:, None], rest)[..., None] * v[:, None]
    return out


def random_onb(d: int, seed: int = 0, field: str = "C") -> Frame:
    """Haar-random orthonormal basis by Gram-Schmidt on Gaussians.

    Deterministic in ``seed``; the square case of the orthonormalization
    rule.  Gram-Schmidt with positive norms is QR with a positive
    diagonal, which is Haar (Mezzadri, Notices AMS 54(5), 592, 2007).
    """
    d = _integer(d, "dimension", 1)
    _, rows = next(_random_rows([(SplitMix64(seed), d)], d, field))
    return Frame(rows, field)


def simplex_etf(d: int) -> Frame:
    """The d+1 vertex directions of a regular simplex in R^d.

    In closed form, with n = d + 1: row i of an orthonormal basis of
    the hyperplane of R^n orthogonal to the all-ones vector is
    (0, ..., 0, n-i-1, -1, ..., -1) / sqrt((n-i-1)(n-i)), its first
    nonzero entry at column i.  Vector k is sqrt(n/d) times column k
    of that d x n basis: the k-th coordinate vector projected onto the
    hyperplane, renormalized and written in the basis.  Equiangular,
    unit norm, and tight with constant (d+1)/d, with coherence exactly
    at the Welch bound.
    """
    d = _integer(d, "dimension", 1)
    n = d + 1
    i = np.arange(d)[:, None]
    k = np.arange(n)
    r = (n - 1 - i).astype(np.float64)
    # The basis scaled by sqrt(n/d) in one factor per row, r = n-i-1.
    basis = np.where(k == i, r, np.where(k > i, -1.0, 0.0))
    return Frame((basis * np.sqrt(n / (d * r * (r + 1.0)))).T, "R")


def harmonic_frame(
    d: int, n: int, selector: tuple[int, ...] | None = None
) -> Frame:
    """Rows of the n-point DFT matrix restricted to selected columns.

    Vector m (0-based) has entries exp(2 pi i m s_k / n) / sqrt(n) for
    the strictly increasing selector (s_1, ..., s_d) drawn from 1..n.
    The default selector is (1, ..., d).  Always a Parseval frame with
    all norms sqrt(d / n).
    """
    d, n = _frame_size(d, n)
    if selector is None:
        selector = tuple(range(1, d + 1))
    sel = tuple(_integer(s, "selector entry") for s in selector)
    if len(sel) != d:
        raise BadSelectorError(
            f"selector has {len(sel)} entries for dimension {d}"
        )
    if min(sel) < 1 or max(sel) > n:
        raise BadSelectorError(f"selector entries must lie in 1..{n}")
    if any(a >= b for a, b in zip(sel, sel[1:])):
        raise BadSelectorError("selector must be strictly increasing")
    _draw_array((n, d), np.complex128)

    m = np.arange(n).reshape(-1, 1)
    s = np.array(sel).reshape(1, -1)
    rows = np.exp(2j * math.pi * m * s / n) / math.sqrt(n)
    return Frame(rows, "C")


def random_parseval(
    d: int, n: int, seed: int = 0, field: str = "C"
) -> Frame:
    """Haar-random Parseval frame by Gram-Schmidt: n vectors in
    dimension d, deterministic in ``seed``.

    The orthonormalization rule makes the d rows of a d x n Gaussian
    block orthonormal; they are the columns of the frame's n x d matrix.
    """
    d, n = _frame_size(d, n)
    _, vectors = next(_random_vectors([(SplitMix64(seed), n)], d, field))
    return Frame(vectors, field)


def with_zeros(f: Frame, k: int) -> Frame:
    """The same frame with k zero vectors appended.

    Appending zeros changes neither the frame operator nor any sum of
    rank-one projections, which is what makes padded orthonormal bases
    useful as Parseval specimens with more vectors than dimensions.
    """
    k = _integer(k, "zeros", 0, "cannot append a negative number of zeros")
    out = _draw_array((len(f) + k, f.dim), f.vectors.dtype)
    out[:len(f)] = f.vectors
    out[len(f):] = 0.0
    return Frame(out, f.field)
