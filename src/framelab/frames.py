"""Finite frames for R^d and C^d.

A frame is stored as an (N, d) array whose rows are the vectors, plus
a field tag "R" or "C".  Real frames keep a float64 array with zero
imaginary part by construction; complex frames keep complex128.  The
frame operator of row matrix X is X^T conj(X) acting on column
vectors, its extreme eigenvalues are the optimal frame bounds, and a
frame is Parseval exactly when that operator is the identity.  The
rank-one rule (projections x_j x_j*) and the c I rule (largest entry of
|S - c I|) are written here once, for frames, POVMs and Gabor frames,
and so are the squared-norm rule (|x|^2 summed over the last axis) and
the unit-modulus deviation (largest |m - 1|).

No diagnostic forms the N x N Gram matrix.  Coherence and
equiangularity stream it in row blocks of bounded size, and the frame
potential is ||S||_F^2 of the d x d frame operator S.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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
from .rng import SplitMix64, _integer

# Bytes of one row block of the Gram matrix in the streaming pass.
_GRAM_BLOCK_BYTES = 2 << 20


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
    # The rank-one rule: the complex128 stack of np.outer(x_j, conj(x_j)).
    x = x.astype(np.complex128, copy=False)
    return x[:, :, None] * x.conj()[:, None, :]


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
    """Canonical Parseval frame obtained through the inverse square
    root of the frame operator.

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


def _pair_stats(f: Frame) -> tuple[float, float, float]:
    """Max, min and mean of |<x_i, x_j>| over the pairs i < j.

    One pass over row blocks of the Gram matrix, each of about
    ``_GRAM_BLOCK_BYTES`` (one row at least): the block of rows s..e-1
    is formed against columns s..N-1 only, so N x N is never held.
    """
    x = f.vectors
    n = len(f)
    rows = max(1, _GRAM_BLOCK_BYTES // (x.itemsize * n))
    hi, lo, total = -math.inf, math.inf, 0.0
    for s in range(0, n, rows):
        e = min(s + rows, n)
        # mags[r, c] = |<x_{s+r}, x_{s+c}>|; conjugating the first
        # factor gives the conjugate inner product, of equal magnitude.
        mags = np.abs(np.conj(x[s:e]) @ x[s:].T)
        diag_block = mags[:, : e - s][np.triu_indices(e - s, 1)]
        for part in (diag_block, mags[:, e - s:]):
            if part.size:
                hi = max(hi, float(part.max()))
                lo = min(lo, float(part.min()))
                total += float(part.sum())
    return hi, lo, total / (n * (n - 1) / 2)


def _equiangular(stats, tol: float) -> tuple[bool, float | None]:
    hi, lo, mean = stats
    return (True, mean) if hi - lo <= tol else (False, None)


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
    return _pair_stats(f)[0]


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
    return _equiangular(_pair_stats(f), tol)


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
        stats = _pair_stats(f)
        equi, angle = _equiangular(stats, tol)
        coh = stats[0] if unit else None
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


def random_onb(d: int, seed: int = 0, field: str = "C") -> Frame:
    """Haar-ish random orthonormal basis via Gram-Schmidt on Gaussians.

    Deterministic in ``seed``.  The d x d Gaussian block is drawn in
    one call, row i being the start vector of basis vector i.  Each
    vector is projected off the earlier ones twice: one pass leaves
    errors that grow as the vector loses norm to the projection, the
    second brings orthonormality to roundoff.  A vector that falls too
    close to the span of the earlier ones, which for continuous
    Gaussians essentially never happens, is replaced by a fresh draw
    from the generator after the block.
    """
    d = _integer(d, "dimension", 1)
    rng = SplitMix64(seed)
    rows: list[np.ndarray] = []
    for v in rng.field_gaussians((d, d), field):
        while True:
            for _ in range(2):
                for u in rows:
                    v = v - np.vdot(u, v) * u
            norm = math.sqrt(_squared_norms(v))
            if norm > 1e-8:
                rows.append(v / norm)
                break
            v = rng.field_gaussians(d, field)
    return Frame(np.array(rows), field)


def simplex_etf(d: int) -> Frame:
    """The d+1 vertex directions of a regular simplex in R^d.

    Built by projecting the coordinate basis of R^(d+1) onto the
    hyperplane orthogonal to the all-ones vector, renormalizing, and
    expressing the result in an orthonormal basis of that hyperplane.
    Equiangular, unit norm, and tight with constant (d+1)/d, with
    coherence exactly at the Welch bound.
    """
    d = _integer(d, "dimension", 1)
    n = d + 1
    ones = np.ones(n) / math.sqrt(n)
    # Orthonormal basis of the hyperplane, found by Gram-Schmidt on the
    # coordinate basis against the all-ones direction.
    basis = []
    for k in range(n):
        v = np.zeros(n)
        v[k] = 1.0
        v -= np.dot(ones, v) * ones
        for b in basis:
            v -= np.dot(b, v) * b
        norm = float(np.sqrt(np.dot(v, v)))
        if norm > 1e-12:
            basis.append(v / norm)
        if len(basis) == d:
            break
    bmat = np.array(basis)

    rows = np.zeros((n, d))
    for k in range(n):
        e = np.zeros(n)
        e[k] = 1.0
        p = e - np.dot(ones, e) * ones
        p /= float(np.sqrt(np.dot(p, p)))
        rows[k] = bmat @ p
    return Frame(rows, "R")


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
    prev = 0
    for s in sel:
        if s <= prev:
            raise BadSelectorError("selector must be strictly increasing")
        prev = s
    if sel[0] < 1 or sel[-1] > n:
        raise BadSelectorError(f"selector entries must lie in 1..{n}")

    m = np.arange(n).reshape(-1, 1)
    s = np.array(sel).reshape(1, -1)
    rows = np.exp(2j * math.pi * m * s / n) / math.sqrt(n)
    return Frame(rows, "C")


def random_parseval(
    d: int, n: int, seed: int = 0, field: str = "C"
) -> Frame:
    """Canonical Parseval frame of n i.i.d. Gaussian vectors in
    dimension d.  Deterministic in ``seed``."""
    d, n = _frame_size(d, n)
    raw = SplitMix64(seed).field_gaussians((n, d), field)
    return canonical_parseval(Frame(raw, field))


def with_zeros(f: Frame, k: int) -> Frame:
    """The same frame with k zero vectors appended.

    Appending zeros changes neither the frame operator nor any sum of
    rank-one projections, which is what makes padded orthonormal bases
    useful as Parseval specimens with more vectors than dimensions.
    """
    k = _integer(k, "zeros", 0, "cannot append a negative number of zeros")
    pad = np.zeros((k, f.dim), dtype=f.vectors.dtype)
    return Frame(np.vstack([f.vectors, pad]), f.field)
