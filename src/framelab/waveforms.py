"""Constant-amplitude zero-autocorrelation sequences and their frames.

A length-d sequence u is CA when every entry has modulus 1 and ZAC
when every nontrivial cyclic autocorrelation (1/d) sum_k u(m+k)
conj(u(k)) vanishes.  The discrete periodic ambiguity function

    A(u)(m, n) = (1/d) sum_k u(m+k) conj(u(k)) exp(-2 pi i k n / d)

refines the autocorrelation by a frequency index; its column n = 0 is
the autocorrelation itself and A(u)(0, 0) = 1 for any CA sequence.
Index arithmetic is mod d throughout.

Two constructions are provided.  One is defined through the Legendre
symbol of the prime length and has uniformly small off-origin
ambiguity, with explicit bounds depending on the residue class of the
prime mod 4.  The other applies a quadratic phase to odd lengths and
serves as an easy reference CAZAC.  Translating and modulating any
unimodular sequence through all d^2 combinations and dividing by
sqrt(d) produces a tight unit-norm Gabor frame whose coherence equals
the off-origin ambiguity peak.  Its vector (m, n) is the cyclic shift
by m of vector (0, n).  Those shifts, and the lags u(m+k) conj(u(k)),
are one gather each through the index table (m + k) mod d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import frames, linalg
from .errors import (
    BadCardinalityError,
    InputError,
    NotPrimeError,
    NotUnimodularError,
    TooFewVectorsError,
    TooSmallError,
)
from .frames import Frame, _identity_deviation, frame_operator
from .linalg import resolve_tol
from .rng import _integer


@dataclass(frozen=True, eq=False)
class AmbiguityTable:
    """Full d x d ambiguity table of a sequence.

    Rows are time shifts m, columns are frequency shifts n.
    """

    values: np.ndarray

    @property
    def length(self) -> int:
        return int(self.values.shape[0])

    def magnitudes(self) -> np.ndarray:
        return np.abs(self.values)

    def peak_off_origin(self) -> float:
        """Largest magnitude away from the (0, 0) corner."""
        mags = self.magnitudes()
        mags[0, 0] = 0.0
        return float(np.max(mags))


class CazacReport(NamedTuple):
    """The CA and ZAC verdicts of one sequence, read off its ambiguity table.

    ``ca_deviation`` is the largest |abs(u(k)) - 1|.  ``zac_peak`` is the
    largest magnitude of column n = 0 of the table below the origin,
    max |A(u)(m, 0)| over m >= 1: the largest nontrivial
    autocorrelation, 0.0 at length 1.  ``ambiguity_peak`` is the
    table's off-origin peak; for a unimodular sequence it is the
    coherence of its Gabor frame.  ``ca_ok`` and ``zac_ok`` judge the
    first two against ``tol``, and ``ok`` is both.
    """

    length: int
    tol: float
    ca_deviation: float
    zac_peak: float
    ambiguity_peak: float
    ca_ok: bool
    zac_ok: bool
    ok: bool


class GaborReport(NamedTuple):
    """Tightness and coherence of the Gabor frame of one sequence.

    ``tight_deviation`` is the largest entry of |S - d I| for the frame
    operator S.  ``coherence``, the largest |<x_i, x_j>| over distinct
    vectors, is read off the ambiguity table as its off-origin peak.
    """

    length: int
    num_vectors: int
    tight_constant: float
    tight_deviation: float
    coherence: float
    tol: float


def _as_sequence(u) -> np.ndarray:
    a = np.asarray(u)
    if a.ndim != 1 or a.shape[0] < 1:
        raise InputError(f"sequence must be a nonempty vector, got shape {a.shape}")
    return linalg._field_array(a, "C", "sequence")


def _shifts(d: int) -> np.ndarray:
    """Index table (m + k) mod d, row m, column k; row -m is (k - m) mod d."""
    k = np.arange(d)
    return (k[:, None] + k) % d


def _lags(a: np.ndarray) -> np.ndarray:
    """Lag matrix: row m holds u(m+k) conj(u(k)) as k varies."""
    d = a.shape[0]
    # A tiled conjugate, not a broadcast row: at d = 1 the broadcast takes
    # another NumPy loop, whose bits differ from the one-row product's.
    return a[_shifts(d)] * np.tile(a.conj(), (d, 1))


def ambiguity(u) -> AmbiguityTable:
    """Discrete periodic ambiguity table of a sequence.

    One matrix product at every length: the lag matrix times the
    d x d table of phases exp(-2 pi i k n / d), divided by d.
    """
    a = _as_sequence(u)
    d = a.shape[0]
    ks = np.arange(d)
    phases = np.exp(-2j * math.pi * np.outer(ks, ks) / d)
    return AmbiguityTable(_lags(a) @ phases / d)


def is_cazac(u, tol: float | None = None) -> CazacReport:
    """Check the constant-amplitude and zero-autocorrelation axioms.

    One d x d ambiguity table is formed, so the check costs one table
    product; ``zac_peak`` is its column n = 0 below the origin and
    ``ambiguity_peak`` its off-origin peak (see :class:`CazacReport`).
    ``ca_deviation`` and ``zac_peak`` must stay within tol for ``ok``.
    """
    tol = resolve_tol(tol)
    a = _as_sequence(u)
    table = ambiguity(a)
    ca_dev = frames._unit_deviation(np.abs(a))
    zac_peak = float(np.abs(table.values[1:, 0]).max(initial=0.0))
    ca_ok = ca_dev <= tol
    zac_ok = zac_peak <= tol
    return CazacReport(
        length=table.length,
        tol=tol,
        ca_deviation=ca_dev,
        zac_peak=zac_peak,
        ambiguity_peak=table.peak_off_origin(),
        ca_ok=ca_ok,
        zac_ok=zac_ok,
        ok=ca_ok and zac_ok,
    )


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))


def _residue_symbol(k: int, p: int) -> int:
    # Euler's criterion, for an odd prime p the caller has checked.
    r = pow(k % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def _bjorck_length(p) -> int:
    # A prime length of at least 5, by the integer rule.
    p = _integer(p, "length")
    if not _is_prime(p):
        raise NotPrimeError(f"length {p} is not prime")
    if p < 5:
        raise TooSmallError(f"length must be at least 5, got {p}")
    return p


def bjorck(p: int) -> np.ndarray:
    """Unimodular CAZAC of prime length p at least 5.

    Entries are unit complex numbers whose phase at index k depends on
    the quadratic residue class of k mod p.  For p = 1 mod 4 the phase
    is the Legendre symbol times arccos(1 / (1 + sqrt(p))); for
    p = 3 mod 4 it is arccos((1 - p) / (1 + p)) on non-residues and 0
    elsewhere.  The off-origin ambiguity of the result is uniformly
    small, on the order of 1 / sqrt(p).
    """
    p = _bjorck_length(p)
    symbols = np.array([_residue_symbol(k, p) for k in range(p)])
    if p % 4 == 1:
        theta = symbols * math.acos(1.0 / (1.0 + math.sqrt(p)))
    else:
        theta = np.where(symbols == -1, math.acos((1.0 - p) / (1.0 + p)), 0.0)
    return np.exp(1j * theta)


def quadratic_phase(d: int) -> np.ndarray:
    """The odd-length CAZAC u(k) = exp(i pi k (k + 1) / d)."""
    d = _integer(d, "length", 1)
    if d % 2 == 0:
        raise BadCardinalityError(f"length must be odd, got {d}")
    k = np.arange(d, dtype=np.float64)
    return np.exp(1j * math.pi * k * (k + 1.0) / d)


def bjorck_peak_bound(p: int) -> float:
    """Upper bound on the off-origin ambiguity peak of the prime-length
    Legendre-phase CAZAC: 2/sqrt(p) + 4/p when p = 1 mod 4, and
    2/sqrt(p) + 4/p^(3/2) when p = 3 mod 4.  Both are below 3/sqrt(p)
    once p > 16."""
    p = _bjorck_length(p)
    if p % 4 == 1:
        return 2.0 / math.sqrt(p) + 4.0 / p
    return 2.0 / math.sqrt(p) + 4.0 / (p ** 1.5)


def gabor_frame(u, tol: float | None = None) -> Frame:
    """All d^2 translates-then-modulates of a unimodular sequence,
    scaled by 1/sqrt(d).

    Vector (m, n), stored at row m * d + n, has entries
    u(k - m) exp(2 pi i (k - m) n / d) / sqrt(d), the cyclic shift by m
    of vector (0, n); all rows are one gather from the d vectors (0, n).
    The result is a unit-norm tight frame with frame constant d, and
    its coherence equals the largest off-origin ambiguity magnitude of u.
    """
    tol = resolve_tol(tol)
    a = _as_sequence(u)
    d = a.shape[0]
    dev = frames._unit_deviation(np.abs(a))
    if dev > tol:
        raise NotUnimodularError(
            f"entry moduli deviate from 1 by up to {dev:.3e}"
        )
    ks = np.arange(d)
    # modulates[n, j] = u(j) exp(2 pi i j n / d) / sqrt(d)
    modulates = a * np.exp(2j * math.pi * ks * ks[:, None] / d) / math.sqrt(d)
    # rows[m, n, k] = modulates[n, (k - m) mod d]
    rows = modulates[ks[:, None], _shifts(d)[-ks][:, None, :]]
    return Frame(rows.reshape(d * d, d), "C")


def analyze_gabor(u, tol: float | None = None) -> tuple[Frame, GaborReport]:
    """The Gabor frame of a unimodular sequence and its report.

    The frame and the ambiguity table are each built once, and no Gram
    matrix is formed: <x_(m,n), x_(m',n')> is, up to a unimodular
    factor, A(u)(m' - m, n' - n), so the coherence is the off-origin
    peak of the table (Benedetto and Donatelli, IEEE J. Sel. Topics
    Signal Process. 1(1), 2007).  Raises what :func:`gabor_frame`
    raises, and :class:`TooFewVectorsError` for a length-1 sequence,
    whose frame has one vector and so no coherence.
    """
    tol = resolve_tol(tol)
    f = gabor_frame(u, tol)
    d = f.dim
    if d < 2:
        raise TooFewVectorsError("coherence needs at least two vectors")
    return f, GaborReport(
        length=d,
        num_vectors=len(f),
        tight_constant=float(d),
        tight_deviation=_identity_deviation(frame_operator(f), d),
        coherence=ambiguity(u).peak_off_origin(),
        tol=tol,
    )
