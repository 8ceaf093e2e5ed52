import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from framelab import (
    InputError,
    NoConvergenceError,
    NotHermitianError,
    NotSquareError,
    SingularOrIndefiniteError,
    SplitMix64,
    bjorck,
    frame_operator,
    gabor_frame,
    hermitian_eig,
    povm_from_frame_grouped,
    psd_inv_sqrt,
    random_hermitian,
    random_parseval,
)
from framelab.linalg import DEFAULT_TOL, _jacobi, _pivoted_rows, resolve_tol


# --- rng -------------------------------------------------------------------


def test_splitmix64_known_first_word():
    # First output for seed 0 is a published constant of the generator.
    assert SplitMix64(0).u64() == 0xE220A8397B1DCDAF


def test_splitmix64_deterministic_and_in_range():
    a = SplitMix64(1234567)
    b = SplitMix64(1234567)
    for _ in range(200):
        x = a.uniform()
        assert x == b.uniform()
        assert 0.0 <= x < 1.0


def test_splitmix64_below_stays_in_range():
    rng = SplitMix64(42)
    seen = set()
    for _ in range(500):
        k = rng.below(7)
        assert 0 <= k < 7
        seen.add(k)
    assert seen == set(range(7))
    with pytest.raises(ValueError):
        rng.below(0)


def test_gaussian_moments_are_sane():
    rng = SplitMix64(99)
    xs = rng.gaussians(20000)
    assert abs(float(xs.mean())) < 0.05
    assert abs(float(xs.std()) - 1.0) < 0.05


def test_complex_gaussian_unit_variance():
    rng = SplitMix64(7)
    zs = rng.complex_gaussians(20000)
    assert abs(float(np.mean(np.abs(zs) ** 2)) - 1.0) < 0.05


# --- hermitian_eig ---------------------------------------------------------


def test_eig_frozen_2x2():
    w, v = hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert_allclose(w, [-1.0, 1.0], atol=1e-14)
    r = 1.0 / math.sqrt(2.0)
    assert_allclose(v[:, 0], [r, -r], atol=1e-14)
    assert_allclose(v[:, 1], [r, r], atol=1e-14)


def _grouped_effects():
    # Effects of grouped POVMs have rank at most their group size, so
    # their spectra hold repeated zeros.
    rng = SplitMix64(808)
    for d, n, k in ((4, 6, 3), (8, 10, 4), (16, 18, 2)):
        f = random_parseval(d, n, seed=rng.u64(), field="C")
        yield from povm_from_frame_grouped(
            f, [list(range(j, n, k)) for j in range(k)]
        ).effects


def test_eig_matches_lapack_complex():
    rng = SplitMix64(2024)
    inputs = [
        random_hermitian(d, seed=rng.u64(), field="C")
        for d in (*range(1, 9), 12, 16, 20, 24)
    ]
    for m in inputs + list(_grouped_effects()):
        d = m.shape[0]
        w, v = hermitian_eig(m)
        ref = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
        assert_allclose(w, ref, atol=1e-10 * (1.0 + float(np.max(np.abs(m)))))
        # reconstruction and orthonormality
        recon = (v * w) @ v.conj().T
        assert_allclose(recon, (m + m.conj().T) / 2.0, atol=1e-10)
        assert_allclose(v.conj().T @ v, np.eye(d), atol=1e-12)


def test_eig_matches_lapack_real():
    rng = SplitMix64(55)
    for d in (2, 3, 5, 7):
        m = random_hermitian(d, seed=rng.u64(), field="R")
        w, v = hermitian_eig(m)
        assert v.dtype == np.float64  # demoted for real input
        assert_allclose(w, np.linalg.eigvalsh(m), atol=1e-10)
        assert_allclose((v * w) @ v.T, m, atol=1e-10)


def test_eig_ascending_and_sign_convention():
    rng = SplitMix64(17)
    for _ in range(10):
        m = random_hermitian(4, seed=rng.u64())
        w, v = hermitian_eig(m)
        assert np.all(np.diff(w) >= -1e-12)
        for j in range(4):
            col = v[:, j]
            lead = next(x for x in col if abs(x) > 1e-12)
            assert abs(complex(lead).imag) < 1e-10
            assert complex(lead).real > 0


def test_eig_diagonal_and_zero():
    w, v = hermitian_eig(np.diag([3.0, -1.0, 2.0]))
    assert_allclose(w, [-1.0, 2.0, 3.0])
    w0, v0 = hermitian_eig(np.zeros((3, 3)))
    assert_allclose(w0, np.zeros(3))
    assert_allclose(v0, np.eye(3))


@pytest.mark.parametrize("diag, order", [
    ([1.0, 1.0, 1.0], [0, 1, 2]),
    ([2.0, 1.0, 2.0, 1.0], [1, 3, 0, 2]),
    ([0.0, -0.0, 0.0, -0.0], [0, 1, 2, 3]),
    ([1.0, -0.0, 0.0, -1.0, -0.0], [3, 1, 2, 4, 0]),
])
def test_eig_keeps_tied_eigenvalues_in_input_order(diag, order):
    # A diagonal input needs no rotation, so ties, including 0.0 against
    # -0.0, are ordered by position alone.  Forming (M + M*) / 2 in
    # complex arithmetic turns each -0.0 into 0.0, hence the + 0.0.
    for field in (float, complex):
        w, v = hermitian_eig(np.diag(diag).astype(field))
        expected = np.array(diag)[order] + 0.0
        assert w.tobytes() == expected.tobytes()
        assert v.dtype == np.float64
        assert np.array_equal(v, np.eye(len(diag))[:, order])


def test_eig_rejects_non_finite_imaginary_parts_alone():
    for bad in (np.inf, -np.inf, np.nan):
        m = np.eye(2, dtype=complex)
        m[0, 1] = complex(0.0, bad)
        with pytest.raises(InputError,
                           match="^matrix contains non-finite entries$"):
            hermitian_eig(m)


def test_eig_extreme_scales():
    # Norms taken as sqrt(sum |a|^2) overflow at the first scale and
    # underflow to zero at the second; both gave eigenvalues [0, 0].
    for scale in (1e160, 1e-170):
        m = scale * np.array([[0.0, 1.0], [1.0, 0.0]])
        w, v = hermitian_eig(m)
        assert_allclose(w, np.linalg.eigvalsh(m), rtol=1e-12, atol=0)
        assert_allclose(v.T @ v, np.eye(2), atol=1e-12)


def test_eig_rejects_bad_input():
    with pytest.raises(NotSquareError):
        hermitian_eig(np.ones((2, 3)))
    with pytest.raises(NotHermitianError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    # the allowance is relative to the largest entry, with no floor
    with pytest.raises(NotHermitianError):
        hermitian_eig(1e-20 * np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(InputError):
        hermitian_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(InputError):
        hermitian_eig(np.zeros((0, 0)))
    # an asymmetry below tol is forgiven and symmetrized away
    m = np.array([[1.0, 1e-13], [0.0, 1.0]])
    w, _ = hermitian_eig(m)
    assert_allclose(w, [1.0, 1.0], atol=1e-12)


def test_eig_complex_input_keeps_complex_vectors():
    # Imaginary parts far below tol are part of the matrix: demoting
    # the eigenvectors to real would leave a residual of ~1e-10.
    m = np.array([[1.0, 1.0 + 9e-11j], [1.0 - 9e-11j, 3.0]])
    w, v = hermitian_eig(m)
    assert v.dtype == np.complex128
    assert float(np.max(np.abs(m @ v - v * w))) <= 1e-14
    # a complex dtype holding a real symmetric matrix is demoted
    _, v = hermitian_eig(np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex))
    assert v.dtype == np.float64


def test_eig_rotates_pivots_below_1e300():
    # An absolute skip of pivots below 1e-300 left this one pivot
    # unrotated forever.
    w, v = hermitian_eig(2.0 ** -1000 * np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert_allclose(w, [-(2.0 ** -1000), 2.0 ** -1000], rtol=1e-15, atol=0)
    assert_allclose(v.T @ v, np.eye(2), atol=1e-15)


def test_eig_grouped_effects_converge_to_roundoff():
    # Spectra piled up at exactly 0 and 1; rotating pivots that are
    # already at roundoff mixed the two clusters and left residuals
    # near 1e-11.
    for seed in range(6):
        f = random_parseval(20, 22, seed=seed)
        p = povm_from_frame_grouped(f, [list(range(0, 22, 2)),
                                        list(range(1, 22, 2))])
        for e in p.effects:
            w, v = hermitian_eig(e)
            assert float(np.max(np.abs(e @ v - v * w))) <= 1e-13


@pytest.mark.parametrize("d, tol", [(20, 1e-16), (8, 1e-18)])
def test_eig_converges_at_tols_below_roundoff(d, tol):
    # The pivots skipped as roundoff stay below tol * ||M||_F in sum,
    # so they never keep the stopping rule out of reach.
    m = random_hermitian(d, seed=d, field="C")
    w, v = hermitian_eig(m, tol=tol)
    assert_allclose(w, np.linalg.eigvalsh(m), rtol=0, atol=1e-13)
    assert_allclose(v.conj().T @ v, np.eye(d), atol=1e-13)


def test_eig_no_convergence_with_absurd_tol():
    m = random_hermitian(3, seed=5)
    with pytest.raises(NoConvergenceError):
        hermitian_eig(m, tol=5e-324)


def test_eig_rejects_nonpositive_tol():
    with pytest.raises(InputError):
        hermitian_eig(np.eye(2), tol=0.0)
    with pytest.raises(InputError):
        hermitian_eig(np.eye(2), tol=-1.0)


@pytest.mark.parametrize("tol", [
    "x", "1e-3", True, False, np.bool_(True), 1e-3 + 0j, [1e-3],
    np.array([1e-3]), 10**400, 0, -1e-3, math.nan, math.inf, np.float32(0.0),
], ids=repr)
def test_resolve_tol_applies_the_number_rule(tol):
    # "x" raised a bare ValueError and 10**400 a bare OverflowError,
    # while "1e-3", True and a one-entry array were taken as numbers.
    message = "^tolerance must be a positive finite number$"
    with pytest.raises(InputError, match=message):
        resolve_tol(tol)
    with pytest.raises(InputError, match=message):
        hermitian_eig(np.eye(2), tol=tol)


@pytest.mark.parametrize("tol, expected", [
    (None, DEFAULT_TOL), (1e-3, 1e-3), (np.float64(1e-3), 1e-3),
    (np.float32(0.5), 0.5), (1, 1.0), (np.int64(2), 2.0),
    (Fraction(1, 1000), 1e-3),
])
def test_resolve_tol_takes_positive_real_numbers(tol, expected):
    got = resolve_tol(tol)
    assert type(got) is float and got == expected


JACOBI_SHA256 = (
    "69f18edef28eb6ede07bdcd6a0271120d4c97011ddb5f98054947d484ee798e6"
)


def _jacobi_battery():
    # Built elementwise, with no BLAS call, so that what the tests below
    # see follows from _jacobi's own Python arithmetic alone.  Each
    # direct sum of a block with itself repeats every eigenvalue exactly.
    for field in ("R", "C"):
        for d in (*range(1, 9), 13, 20):
            m = random_hermitian(d, seed=d, field=field)
            blocks = [m]
            if d <= 8:
                twice = np.zeros((2 * d, 2 * d), dtype=m.dtype)
                twice[:d, :d] = twice[d:, d:] = m
                blocks.append(twice)
            for block in blocks:
                for scale in (1.0, 1e-150, 1e150):
                    yield (block * scale).astype(complex).tolist()


def _hex(z: complex) -> str:
    return f"{z.real.hex()},{z.imag.hex()}"


def test_jacobi_bits_are_pinned():
    # The diagonal, the eigenvector rows and the working matrix that
    # _jacobi leaves, every real and imaginary part to the bit.  A
    # rewrite of the rotation that keeps each floating-point operation
    # and its order keeps this hash.
    h = hashlib.sha256()
    for a in _jacobi_battery():
        diag, vt = _jacobi(a, DEFAULT_TOL)
        h.update(" ".join(x.hex() for x in diag).encode())
        for rows in (vt, a):
            for row in rows:
                h.update(" ".join(map(_hex, row)).encode())
    assert h.hexdigest() == JACOBI_SHA256


def test_jacobi_leaves_the_working_matrix_hermitian_by_fiat():
    # Each rotation writes columns p and q as the conjugates of rows p
    # and q, so the result is exactly Hermitian, with a real diagonal; a
    # dropped or misplaced write-back breaks this.  The comparison is
    # float ==, exact but blind to the sign of a zero, which the input
    # does not keep Hermitian: a real entry x + 0j faces x + 0j.
    for a in _jacobi_battery():
        _jacobi(a, DEFAULT_TOL)
        d = len(a)
        for r in range(d):
            assert a[r][r].imag == 0.0
            for c in range(r + 1, d):
                assert a[r][c] == a[c][r].conjugate(), (d, r, c)


HERMITIAN_EIG_SHA256 = (
    "762fa4059c247008563dff9c0cf6d36f53fc3e1daf6aaa5d9e3416d72ddac7df"
)


def _eig_battery():
    # Random Hermitian matrices in both fields, the effects of grouped
    # POVMs of random Parseval frames, and Gabor frame operators.
    for field in ("R", "C"):
        for d in range(1, 25):
            yield random_hermitian(d, seed=d, field=field)
    for d, n, k in ((6, 9, 3), (13, 20, 4), (20, 27, 5)):
        groups = [list(range(j, n, k)) for j in range(k)]
        yield from povm_from_frame_grouped(
            random_parseval(d, n, seed=d), groups).effects
    for p in (5, 7, 11, 13):
        yield frame_operator(gabor_frame(bjorck(p)))


def test_hermitian_eig_bits_are_pinned():
    # Eigenvalues and phase-fixed eigenvectors to the bit: the phase
    # rule must scale each row by NumPy complex arithmetic on the
    # scalar magnitude of its pivot, which np.abs on an array of pivots
    # does not always match.
    h = hashlib.sha256()
    for m in _eig_battery():
        values, vecs = hermitian_eig(m)
        h.update(" ".join(float(x).hex() for x in values).encode())
        h.update(" ".join(_hex(complex(z)) for z in vecs.reshape(-1)).encode())
    assert h.hexdigest() == HERMITIAN_EIG_SHA256


# --- the pivoted factorization ---------------------------------------------


@pytest.mark.parametrize("field", ["R", "C"])
def test_pivoted_rows_factor_a_semidefinite_matrix_to_its_rank(field):
    for d, rank in ((1, 1), (4, 2), (7, 7), (9, 5)):
        g = SplitMix64(d).field_gaussians((rank, d), field)
        m = g.T @ g.conj()
        m = (m + m.conj().T) / 2.0
        before = m.copy()
        rows = _pivoted_rows(m, 1e-10)
        assert np.array_equal(m, before)  # the input is left alone
        assert rows.shape == (rank, d) and rows.dtype == m.dtype
        assert_allclose(rows.T @ rows.conj(), m, rtol=0, atol=1e-12)
        # each pivot is the largest diagonal entry left: the row's own
        # largest entry, real and positive, and no larger than the last
        pivots = np.argmax(np.abs(rows), axis=1)
        heads = rows[np.arange(rank), pivots]
        assert len(set(pivots.tolist())) == rank
        for r in range(rank):
            assert not rows[r + 1:, pivots[r]].any()
        assert np.all(heads.imag == 0) and np.all(np.diff(heads.real) <= 0)
        # positive definite exactly when it runs to the end at stop 0
        for shift in (1e-3, -1e-3):
            s = m + shift * np.eye(d)
            definite = np.linalg.eigvalsh(s)[0] > 0
            assert (len(_pivoted_rows(s, 0.0)) == d) == definite
        assert rank == d or not definite


def test_pivoted_rows_stop_at_the_first_pivot_not_above_stop():
    m = np.diag([3.0, 1e-11, 2.0, 0.0])
    rows = _pivoted_rows(m, 1e-10)
    assert rows.tolist() == [[math.sqrt(3.0), 0.0, 0.0, 0.0],
                             [0.0, 0.0, math.sqrt(2.0), 0.0]]
    assert len(_pivoted_rows(m, 0.0)) == 3
    assert len(_pivoted_rows(-m, 0.0)) == 0
    # an overflow in the update (-inf here) ends the factorization,
    # silently
    huge = np.array([[1.0, 1e300], [1e300, 1.0]])
    assert len(_pivoted_rows(huge, 0.0)) == 1


# --- psd_inv_sqrt ----------------------------------------------------------


def test_psd_inv_sqrt_identities():
    rng = SplitMix64(31)
    for d in (1, 2, 4, 6):
        g = random_hermitian(d, seed=rng.u64())
        m = g @ g.conj().T + 0.5 * np.eye(d)  # safely positive definite
        r = psd_inv_sqrt(m)
        assert_allclose(r, r.conj().T, atol=1e-12)
        assert_allclose(r @ r @ m, np.eye(d), atol=1e-9)
        assert_allclose(r @ m, m @ r, atol=1e-9)


def test_psd_inv_sqrt_real_stays_real():
    m = np.array([[2.0, 1.0], [1.0, 2.0]])
    r = psd_inv_sqrt(m)
    assert r.dtype == np.float64
    assert_allclose(r @ r @ m, np.eye(2), atol=1e-12)


def test_psd_inv_sqrt_complex_input_stays_complex():
    m = np.array([[2.0, 1e-11j], [-1e-11j, 2.0]])
    r = psd_inv_sqrt(m)
    assert r.dtype == np.complex128
    w, v = np.linalg.eigh(m)
    assert_allclose(r, (v * w ** -0.5) @ v.conj().T, rtol=0, atol=1e-15)


def test_psd_inv_sqrt_rejects_singular_and_indefinite():
    with pytest.raises(SingularOrIndefiniteError):
        psd_inv_sqrt(np.diag([1.0, 0.0]))
    with pytest.raises(SingularOrIndefiniteError):
        psd_inv_sqrt(np.diag([1.0, -2.0]))
    # borderline: eigenvalue right at tol passes with a smaller tol
    m = np.diag([1.0, 1e-8])
    with pytest.raises(SingularOrIndefiniteError):
        psd_inv_sqrt(m, tol=1e-6)
    r = psd_inv_sqrt(m, tol=1e-10)
    assert_allclose(r @ r @ m, np.eye(2), atol=1e-8)


def test_random_hermitian_is_hermitian():
    for field in ("R", "C"):
        m = random_hermitian(5, seed=11, field=field)
        assert_allclose(m, m.conj().T, atol=0)
