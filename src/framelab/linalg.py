"""Hermitian linear algebra on small dense matrices.

One eigensolver gives spectra and one pivoted factorization gives
positivity and factors; both are written here rather than delegated to
LAPACK or BLAS, so that their results are identical on every platform
and fully under our control.  The package's array, Hermitian and
rank-one rules are written here once (the field and integer rules live in
:mod:`framelab.rng`, and the Gaussians of a field are drawn by
``SplitMix64.field_gaussians`` alone):

* Array rule: a caller's array must be numeric and finite.  It comes
  back C-contiguous, float64 for field "R" or complex128 for "C"; one
  tagged "R" may be complex only if every imaginary part is zero.
* Hermitian check: a finite square M passes at ``tol`` when
  ``max|M - M*| <= tol * max|M|`` (so the zero matrix passes); its
  Hermitian part ``(M + M*)/2`` is what gets diagonalized or factored.
* Real demotion: eigenvectors, inverse square roots and factor rows are
  real arrays exactly when that Hermitian part has no nonzero imaginary
  entry, which makes the demotion lossless.
* Inverse square root: :func:`psd_inv_sqrt`, and nowhere else.
* Pivoted factorization: ``_pivoted_rows``, the outer-product Cholesky
  whose pivot is the largest diagonal entry among the indices not yet
  eliminated (N. J. Higham, Reliable Numerical Computation, OUP 1990).
  It factors a stack of matrices of one dtype, each with its own
  ``stop``, one pivot step at a time for the whole stack, and returns
  each matrix's rank and rows x_j, in pivot order, of
  ``M = sum_j x_j x_j*`` up to the remainder left at the first pivot
  not above its ``stop``; with ``stop`` 0, d rows mean M is positive
  definite.  A real stack is never promoted to complex, whose division
  by a real root multiplies by its reciprocal and changes bits.  Its
  update is the rank-one rule and elementwise ufuncs, with no BLAS
  call.
* Rank-one rule: ``_rank_one``, the products x_j x_j* of the rows of a
  block, one broadcast multiply in the block's own dtype with the bits
  of ``np.outer``.
* Mixed-relative comparison: ``|x| <= tol * max(1, |ref|)``, which
  judges a frame's tightness gap, a Born trace's imaginary residue, a
  probed effect functional's imaginary part and an imaginary part
  demoted as roundoff.

The eigensolver is the cyclic complex Jacobi method, on one complex
code path.  Its sweeps run on Python lists of ``complex`` scalars, not
NumPy arrays: at the dimensions used here (mostly d <= 20) the fixed
cost of a NumPy call exceeds the O(d) arithmetic of a rotation.  Pivot
order, rotation formulas, the skip of pivots at roundoff of the input
(Rutishauser's threshold, Numer. Math. 9, 1966, scaled to the input)
and the scaled stopping rule are fixed: see :func:`_jacobi`.

Conventions
-----------
* Eigenvalues are returned in ascending order.
* Each eigenvector column is rotated so that its first entry of
  magnitude above 1e-12 is real and positive.
* ``tol=None`` means use :data:`DEFAULT_TOL`; any other ``tol`` is a
  positive number by the number rule of :mod:`framelab.rng`.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import (
    InputError,
    NoConvergenceError,
    NotHermitianError,
    NotSquareError,
    SingularOrIndefiniteError,
)
from .rng import SplitMix64, _check_field, _finite, _integer

DEFAULT_TOL = 1e-10

_MAX_SWEEPS = 100


class HermitianEig(NamedTuple):
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def resolve_tol(tol: float | None) -> float:
    """Replace ``None`` with the package default tolerance.

    Any other ``tol`` must pass the number rule of :mod:`framelab.rng`
    and be positive: a string or a bool is refused, not converted.
    """
    if tol is None:
        return DEFAULT_TOL
    message = "tolerance must be a positive finite number"
    tol = _finite(tol, "tolerance", message)
    if tol <= 0.0:
        raise InputError(message)
    return tol


def _negligible(x, ref, tol: float) -> bool:
    # The mixed-relative comparison of the module docstring: absolute
    # while |ref| <= 1, relative to ref above it.  A NaN x fails it.
    return abs(x) <= tol * max(1.0, abs(ref))


def _field_array(
    a, field: str, name: str, imaginary: str = "", non_finite: str = ""
) -> np.ndarray:
    # The array rule of the module docstring.  ``name`` is the subject of
    # its messages; ``imaginary`` and ``non_finite`` override two of them.
    _check_field(field)
    a = np.asarray(a)
    if a.dtype.kind not in "fiucb":
        raise InputError(f"{name} must be numeric")
    if field == "R" and a.dtype.kind == "c":
        if a.imag.any():
            raise InputError(
                imaginary or f"real {name} has nonzero imaginary parts"
            )
        a = a.real
    dtype = np.float64 if field == "R" else np.complex128
    a = np.ascontiguousarray(a, dtype=dtype)
    # count_nonzero skips the fixed cost of an .all() reduction
    if np.count_nonzero(np.isfinite(a)) != a.size:
        raise InputError(non_finite or f"{name} contains non-finite entries")
    return a


def _as_matrix(m, name: str = "matrix") -> np.ndarray:
    a = np.asarray(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSquareError(f"{name} must be square, got shape {a.shape}")
    if not a.size:
        raise InputError(f"{name} is empty")
    return _field_array(a, "C", name)


def _hermitian_parts(
    a: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # The Hermitian check of the module docstring on a (s, d, d) stack
    # of _as_matrix results: each matrix's deviation max|M - M*|, the
    # deviation it is allowed, tol * max|M|, and the Hermitian parts
    # (M + M*)/2 that it judges.
    adj = a.conj().swapaxes(1, 2)
    return (np.abs(a - adj).max(axis=(1, 2)),
            tol * np.abs(a).max(axis=(1, 2)), (a + adj) / 2.0)


def _hermitian_part(
    a: np.ndarray, tol: float, name: str = "matrix"
) -> np.ndarray:
    # The Hermitian check of one _as_matrix result, raised on; returns
    # the Hermitian part that it judges.
    (dev,), (allowed,), (herm,) = _hermitian_parts(a[None], tol)
    if dev > allowed:
        raise NotHermitianError(
            f"{name} deviates from Hermitian by {dev:.3e} "
            f"(allowed {allowed:.3e})"
        )
    return herm


def _rank_one(x: np.ndarray) -> np.ndarray:
    # The rank-one rule: the stack of np.outer(x_j, conj(x_j)) over the
    # rows x_j of x, in the dtype of x, by the same multiply ufunc.
    return x[:, :, None] * x.conj()[:, None, :]


def _pivoted_rows(m: np.ndarray, stop) -> tuple[np.ndarray, np.ndarray]:
    # The pivoted factorization of the module docstring, on a copy of a
    # (s, d, d) stack of Hermitian float64 or complex128 matrices, with
    # a ``stop`` >= 0 for each (one number, or one per matrix).  Returns
    # each matrix's rank and its (s, d, d) rows, which are 0 from its
    # rank on.  Each pivot step runs on the whole stack; a matrix that
    # has stopped gets x = 0, so ``a -= 0`` leaves its bits alone.  Each
    # eliminated row and column is set to exactly 0, so an eliminated
    # index never again wins the pivot search over a positive remaining
    # diagonal entry, nor passes the test to hide a negative one (at
    # roundoff above 0 it would).  A NaN pivot, from an overflow near the
    # float limit, fails the test.
    a = np.array(m)
    s, d = a.shape[:2]
    k = np.arange(s)
    rows = np.zeros_like(a)
    rank = np.zeros(s, dtype=np.intp)
    live = np.ones(s, dtype=bool)
    # the root of a stopped matrix may be 0 or NaN
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for r in range(d):
            p = np.argmax(a.diagonal(axis1=1, axis2=2).real, axis=1)
            pivot = a[k, p, p].real
            live &= pivot > stop
            if not live.any():
                break
            rank += live
            root = np.sqrt(pivot)
            x = a[k, :, p] / root[:, None]
            x[k, p] = root
            x[~live] = 0.0
            a -= _rank_one(x)
            a[k, p] = a[k, :, p] = 0.0
            rows[:, r] = x
    return rank, rows


def _magnitudes(a: list[list[complex]]) -> list[float]:
    # Entry magnitudes in row order.  The norms take them through
    # math.hypot, which scales, so entries near the overflow or
    # underflow limit of a double neither turn a norm into inf nor
    # flush it to zero.
    return [abs(x) for row in a for x in row]


def _offdiag_norm(a: list[list[complex]]) -> float:
    # Computed directly on the off-diagonal part. Subtracting squared
    # norms instead cancels catastrophically and stalls convergence.
    mags = _magnitudes(a)
    del mags[:: len(a) + 1]  # the diagonal
    return math.hypot(*mags)


def _jacobi(
    a: list[list[complex]], tol: float
) -> tuple[list[float], list[list[complex]]]:
    """Cyclic complex Jacobi sweeps on a Hermitian matrix.

    ``a`` holds the rows of an exactly Hermitian matrix as lists of
    Python ``complex`` scalars and is diagonalized in place.  Returns
    the diagonal and the eigenvectors stored as rows (the transpose of
    the eigenvector matrix), so that each rotation updates two row
    lists of each matrix and makes no NumPy call.

    Each sweep visits the pivots (p, q), p < q, row by row.  A
    rotation is one pass over the columns j: it rotates entry j of
    rows p and q in place, writes their conjugates into columns p and
    q of row j for every other j, and rotates entry j of eigenvector
    rows p and q.  The column rotation of the 2x2 pivot block then
    follows, so the working matrix stays exactly Hermitian with a real
    diagonal.  A pivot of magnitude at most ``min(2**-52, tol / d)``
    times the Frobenius norm of the input is skipped: it is at roundoff
    of the input, and rotating it by its noisy angle mixes clusters of
    equal eigenvalues.  The floor is relative so that it works at every
    scale, and capped at ``tol / d`` because the d(d-1) off-diagonal
    entries at or below it then have a Frobenius norm below ``tol``
    times the input norm: skipped pivots alone never hold a sweep above
    the stopping threshold below.

    Sweeps stop once the off-diagonal Frobenius norm drops below
    ``tol`` times the Frobenius norm of the input, after which one
    extra polishing sweep runs to push rotations to roundoff; an
    off-diagonal norm below 1e-14 times the input norm stops at once.
    Both norms are scaled, so they neither overflow nor underflow.
    Raises after 100 sweeps without convergence.
    """
    d = len(a)
    vt = [[0j] * d for _ in range(d)]
    for i in range(d):
        vt[i][i] = 1 + 0j
    fro = math.hypot(*_magnitudes(a))
    thresh = tol * fro
    floor = min(2.0 ** -52, tol / d) * fro

    polish = False
    for _ in range(_MAX_SWEEPS):
        off = _offdiag_norm(a)
        if off <= thresh:
            if polish or off <= 1e-14 * fro:
                break
            polish = True

        for p in range(d - 1):
            rp = a[p]
            vp = vt[p]
            for q in range(p + 1, d):
                rq = a[q]
                apq = rp[q]
                mag = abs(apq)
                if mag <= floor:
                    # at roundoff of the input: its tau is noise
                    continue
                tau = (rq[q].real - rp[p].real) / (2.0 * mag)
                if abs(tau) > 1e150:
                    # asymptotic form; tau * tau would overflow
                    t = 0.5 / tau
                elif tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                # c * x promotes a float c to complex(c, 0.0) at every
                # product; promoting it once here gives the same bits.
                c, s = complex(c, 0.0), complex(s, 0.0)
                eiphi = apq / mag
                se = s * eiphi
                ce = c * eiphi
                sc = se.conjugate()
                cc = ce.conjugate()

                # Entry j of rows p and q is read before it is written,
                # so the pass rotates them in place.  Their own pivot
                # entries take no write-back: the block rotation below
                # sets all four.
                vq = vt[q]
                for j in range(d):
                    x = rp[j]
                    y = rq[j]
                    u = c * x - se * y
                    w = s * x + ce * y
                    rp[j] = u
                    rq[j] = w
                    if j != p and j != q:
                        row = a[j]
                        row[p] = u.conjugate()
                        row[q] = w.conjugate()
                    x = vp[j]
                    y = vq[j]
                    vp[j] = c * x - sc * y
                    vq[j] = s * x + cc * y
                # column rotation of the pivot block; Hermitian by fiat,
                # its diagonal imaginary parts -0.0 as a conjugate leaves
                xp = rp[p]
                xq = rp[q]
                rp[p] = complex((c * xp - sc * xq).real, -0.0)
                rp[q] = s * xp + cc * xq
                rq[q] = complex((s * rq[p] + cc * rq[q]).real, -0.0)
                rq[p] = rp[q].conjugate()

    else:
        if _offdiag_norm(a) > thresh:
            raise NoConvergenceError(
                f"eigensolver did not converge within {_MAX_SWEEPS} sweeps"
            )
    return [a[i][i].real for i in range(d)], vt


def _fix_phases(rows: np.ndarray) -> None:
    # The phase convention of the module docstring, in place, on
    # eigenvectors stored as rows.  Each row has unit norm, so some
    # entry has magnitude at least 1/sqrt(d) > 1e-12 and argmax finds
    # the first entry above 1e-12 in every row.
    k = np.arange(len(rows))
    at = (np.abs(rows) > 1e-12).argmax(axis=1)
    pivots = rows[k, at]
    # abs of each NumPy scalar, not np.abs of the array, whose SIMD loop
    # gives other bits for some pivots.
    rows *= (pivots.conjugate() / np.array([abs(z) for z in pivots]))[:, None]
    # Scrub the tiny imaginary residue the rotation leaves behind.
    rows[k, at] = np.abs(rows[k, at].real)


def hermitian_eig(m, tol: float | None = None) -> HermitianEig:
    """Full eigendecomposition of a Hermitian matrix.

    Parameters
    ----------
    m : array_like
        Square matrix that passes the Hermitian check of the module
        docstring.  Its Hermitian part ``(M + M*)/2`` is diagonalized.
    tol : float, optional
        Tolerance for the Hermitian check and for convergence.

    Returns
    -------
    HermitianEig
        ``eigenvalues`` ascending (real float array) and
        ``eigenvectors`` with matching orthonormal columns, real by the
        demotion rule of the module docstring.

    Raises
    ------
    NotSquareError
        If ``m`` is not square.
    NotHermitianError
        If ``m`` is too far from Hermitian.
    NoConvergenceError
        If the sweep cap is reached, which for sane input it is not.
    """
    tol = resolve_tol(tol)
    herm = _hermitian_part(_as_matrix(m), tol)
    diag, vt = _jacobi(herm.tolist(), tol)
    # sorted is stable, so tied eigenvalues keep their Jacobi order
    order = sorted(range(len(diag)), key=diag.__getitem__)
    rows = np.array([vt[k] for k in order])
    _fix_phases(rows)
    vecs = rows.T
    if not herm.imag.any():
        # real symmetric: every rotation was real, so this is lossless
        vecs = vecs.real
    return HermitianEig(
        np.array([diag[k] for k in order]), np.ascontiguousarray(vecs)
    )


def psd_inv_sqrt(m, tol: float | None = None) -> np.ndarray:
    """Inverse square root of a positive definite Hermitian matrix.

    ``m`` must pass the Hermitian check of the module docstring.
    Eigenvalues below ``tol`` make the problem ill-posed and raise
    :class:`SingularOrIndefiniteError`.  The result is re-symmetrized
    so it is Hermitian to roundoff, and real by the demotion rule of
    the module docstring.
    """
    tol = resolve_tol(tol)
    values, vecs = hermitian_eig(m, tol)
    if float(values[0]) < tol:
        raise SingularOrIndefiniteError(
            f"smallest eigenvalue {values[0]:.3e} is below the cutoff {tol:.3e}"
        )
    vc = vecs.astype(np.complex128, copy=False)
    root = (vc * (values ** -0.5)) @ vc.conj().T
    if np.isrealobj(vecs):
        # real eigenvectors leave exactly zero imaginary parts
        root = root.real
    return (root + root.conj().T) / 2.0


def random_hermitian(d: int, seed: int = 0, field: str = "C") -> np.ndarray:
    """Random Hermitian matrix (G + G*) / 2 from a Gaussian G."""
    d = _integer(d, "dimension", 1)
    g = SplitMix64(seed).field_gaussians((d, d), field)
    return (g + g.conj().T) / 2.0
