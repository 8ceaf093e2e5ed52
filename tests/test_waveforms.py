import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import framelab as fl
from framelab import frames, waveforms


# Reference forms that take each cyclic shift one at a time: the
# library gathers all of them at once and must give the same bits.


def loop_lags(a):
    d = len(a)
    lags = np.empty((d, d), dtype=np.complex128)
    for m in range(d):
        lags[m] = np.roll(a, -m) * a.conj()
    return lags


def loop_ambiguity(a):
    d = len(a)
    ks = np.arange(d)
    lags = loop_lags(a)
    phases = np.exp(-2j * math.pi * np.outer(ks, ks) / d)
    return lags @ phases / d


def loop_zac_peak(a):
    # Column n = 0 of the table is the autocorrelation; rows 1 and up
    # are the nontrivial lags.
    return float(np.max(np.abs(loop_ambiguity(a)[1:, 0]), initial=0.0))


def summed_zac_peak(a):
    # Each lag summed on its own: the same magnitudes, rounded apart.
    d = len(a)
    peak = 0.0
    for m in range(1, d):
        peak = max(peak, abs(complex(np.sum(np.roll(a, -m) * a.conj())) / d))
    return peak


def loop_gabor(a):
    d = len(a)
    root = math.sqrt(d)
    rows = np.empty((d * d, d), dtype=np.complex128)
    base_idx = np.arange(d)
    for m in range(d):
        shifted = (base_idx - m) % d
        translated = a[shifted]
        for n in range(d):
            phase = np.exp(2j * math.pi * shifted * n / d)
            rows[m * d + n] = translated * phase / root
    return rows


def _unimodular(d, seed):
    z = fl.SplitMix64(seed).complex_gaussians(d)
    return z / np.abs(z)


# Both congruence classes of primes 5..73, quadratic phases of odd
# lengths up to 69, and random unimodular sequences of even and odd
# lengths, 1 and 2 included.
SHIFT_BATTERY = (
    [(f"bjorck-{p}", fl.bjorck(p))
     for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
               61, 67, 71, 73)]
    + [(f"quadratic-{d}", fl.quadratic_phase(d))
       for d in (1, 3, 9, 15, 21, 65, 69)]
    + [(f"random-{d}", _unimodular(d, 100 + d))
       for d in (1, 2, 4, 6, 10, 64, 65, 66)]
)


@pytest.mark.parametrize(
    "name, u", SHIFT_BATTERY, ids=[name for name, _ in SHIFT_BATTERY])
def test_shift_gathers_match_loop_forms_bit_for_bit(name, u):
    assert waveforms._lags(u).tobytes() == loop_lags(u).tobytes()
    assert fl.ambiguity(u).values.tobytes() == loop_ambiguity(u).tobytes()
    report = fl.is_cazac(u)
    assert report.zac_peak == loop_zac_peak(u)
    assert report.ambiguity_peak == fl.ambiguity(u).peak_off_origin()
    assert fl.gabor_frame(u).vectors.tobytes() == loop_gabor(u).tobytes()


@pytest.mark.parametrize(
    "name, u", SHIFT_BATTERY, ids=[name for name, _ in SHIFT_BATTERY])
def test_zac_peak_matches_lags_summed_one_by_one(name, u):
    # Reading the table moves only the rounding of each lag's sum.
    assert abs(fl.is_cazac(u).zac_peak - summed_zac_peak(u)) <= 1e-15


def test_shift_constructions_at_lengths_1_and_2():
    for u in (np.array([1.0]), _unimodular(1, 7), np.array([1.0, -1.0j])):
        d = len(u)
        f = fl.gabor_frame(u)
        assert f.vectors.shape == (d * d, d)
        assert_allclose(f.norms(), np.ones(d * d), atol=1e-15)
        table = fl.ambiguity(u)
        assert table.length == d
        assert_allclose(table.values[0, 0], 1.0, atol=1e-15)
        report = fl.is_cazac(u)
        assert report.ca_ok and report.ok
    # length 1 has no nontrivial shift; [1, -i] is a CAZAC of length 2
    assert fl.is_cazac(np.array([1.0])).zac_peak == 0.0
    assert fl.is_cazac(_unimodular(1, 7)).ambiguity_peak == 0.0
    assert fl.is_cazac(np.array([1.0, -1.0j])).zac_peak == 0.0
    assert fl.gabor_frame(np.array([-1.0j])).vectors.tolist() == [[-1.0j]]
    table = fl.ambiguity(np.array([1.0, 1.0]))
    assert table.peak_off_origin() == 1.0
    assert table.values[0, 0] == 1.0  # the peak search leaves the table


def fft_ambiguity(u):
    """Independent route: row m of the table is the DFT of the lag product
    u(m+k) conj(u(k)), scaled by 1/d.  np.fft is not used by the library."""
    d = len(u)
    rows = np.empty((d, d), dtype=complex)
    for m in range(d):
        rows[m] = np.fft.fft(np.roll(u, -m) * np.conj(u)) / d
    return rows


def test_ambiguity_against_fft_oracle():
    for d, seed in ((13, 1), (65, 2), (67, 3), (101, 4)):
        rng = fl.SplitMix64(seed)
        u = rng.complex_gaussians(d)
        table = fl.ambiguity(u)
        assert table.length == d
        assert_allclose(table.values, fft_ambiguity(u), atol=1e-12)


def test_ambiguity_origin_is_energy():
    u = np.exp(2j * np.pi * np.arange(11) ** 2 / 11.0)
    table = fl.ambiguity(u)
    assert_allclose(table.values[0, 0], 1.0, atol=1e-14)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 9: a unimodular "
                   "sequence's ambiguity magnitude rounds above 1")
def test_no_ambiguity_magnitude_of_a_cazac_sequence_exceeds_one():
    # |A(m, n)| <= A(0, 0) = 1 for a unit-energy sequence (Cauchy-Schwarz),
    # but the table of bjorck(5) reads 1.0000000000000002 off the origin,
    # and is_cazac's ambiguity_peak and analyze_gabor's coherence with it.
    assert fl.ambiguity(fl.bjorck(5)).magnitudes().max() <= 1


def test_ambiguity_rejects_garbage():
    with pytest.raises(fl.InputError):
        fl.ambiguity(np.array([]))
    with pytest.raises(fl.InputError):
        fl.ambiguity(np.array([[1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(fl.InputError):
        fl.ambiguity(np.array([1.0, np.nan]))


def test_quadratic_phase_is_cazac():
    for d in (7, 65, 101):
        u = fl.quadratic_phase(d)
        report = fl.is_cazac(u)
        assert report.ok, (d, report.ca_deviation, report.zac_peak)
        assert report.ca_deviation <= 1e-12
        assert report.zac_peak <= 1e-10
    with pytest.raises(fl.BadCardinalityError, match="odd"):
        fl.quadratic_phase(6)
    for bad in (0, -3):  # below the length's own floor
        with pytest.raises(fl.InputError, match="^length must be at least 1$"):
            fl.quadratic_phase(bad)


def test_constant_sequence_fails_zac():
    report = fl.is_cazac(np.ones(8, dtype=complex))
    assert report.ca_ok
    assert not report.zac_ok
    assert report.zac_peak == 1.0 == report.ambiguity_peak
    assert not report.ok


def test_cazac_report_reads_its_peaks_off_one_table(monkeypatch):
    built = []
    real = waveforms.ambiguity

    def counted(u):
        built.append(len(u))
        return real(u)

    monkeypatch.setattr(waveforms, "ambiguity", counted)
    report = fl.is_cazac(fl.bjorck(13))
    assert built == [13]
    assert report.zac_peak <= 1e-15 and report.ok
    assert report.ambiguity_peak <= fl.bjorck_peak_bound(13)


@pytest.mark.parametrize("p", [5, 7, 13, 23])
def test_bjorck_phases_follow_the_legendre_symbol(p):
    u = fl.bjorck(p)
    squares = {k * k % p for k in range(1, p)}  # the nonzero residues
    symbols = [0 if k == 0 else 1 if k in squares else -1 for k in range(p)]
    if p % 4 == 1:
        angle = math.acos(1.0 / (1.0 + math.sqrt(p)))
        theta = [s * angle for s in symbols]
    else:
        angle = math.acos((1.0 - p) / (1.0 + p))
        theta = [angle if s == -1 else 0.0 for s in symbols]
    assert u.tobytes() == np.exp(1j * np.array(theta)).tobytes()


def test_bjorck_input_validation():
    for not_prime in (1, 4, 9, 12):
        with pytest.raises(fl.NotPrimeError):
            fl.bjorck(not_prime)
    for small in (2, 3):
        with pytest.raises(fl.TooSmallError):
            fl.bjorck(small)


def test_bjorck_is_cazac_both_classes():
    for p in (5, 13, 7, 11):  # two of each congruence class mod 4
        u = fl.bjorck(p)
        assert_allclose(np.abs(u), np.ones(p), atol=1e-15)
        report = fl.is_cazac(u)
        assert report.ok, (p, report.ca_deviation, report.zac_peak)


def test_bjorck_first_entry_and_symmetry_p13():
    u = fl.bjorck(13)
    assert u[0] == 1.0 + 0.0j
    # theta depends only on the Legendre symbol, so residues share a value
    assert_allclose(u[1], u[4], atol=1e-15)
    assert_allclose(u[2], u[5], atol=1e-15)


def test_bjorck_peak_bound_formulas():
    assert_allclose(fl.bjorck_peak_bound(13), 2.0 / math.sqrt(13) + 4.0 / 13)
    assert_allclose(
        fl.bjorck_peak_bound(7), 2.0 / math.sqrt(7) + 4.0 / 7 ** 1.5
    )
    with pytest.raises(fl.NotPrimeError):
        fl.bjorck_peak_bound(8)


def test_bjorck_peak_under_bound():
    for p in (13, 17, 7, 11, 19, 23):
        u = fl.bjorck(p)
        peak = fl.ambiguity(u).peak_off_origin()
        assert peak <= fl.bjorck_peak_bound(p) + 1e-12, (p, peak)


def test_gabor_frame_shape_and_tightness():
    p = 7
    f = fl.gabor_frame(fl.bjorck(p))
    assert f.vectors.shape == (p * p, p)
    assert_allclose(f.norms(), np.ones(p * p), atol=1e-12)
    s = fl.frame_operator(f)
    assert_allclose(s, p * np.eye(p), atol=1e-10)
    lo, hi = fl.frame_bounds(f)
    assert_allclose((lo, hi), (p, p), atol=1e-10)


def test_gabor_rows_are_shifted_modulated_copies():
    d = 5
    u = fl.quadratic_phase(d)
    f = fl.gabor_frame(u)
    k = np.arange(d)
    for m in range(d):
        for n in range(d):
            shifted = u[(k - m) % d]
            row = shifted * np.exp(2j * np.pi * ((k - m) % d) * n / d)
            assert_allclose(
                f.vectors[m * d + n], row / math.sqrt(d), atol=1e-14
            )
    # Vector (m, n) is exactly the cyclic shift by m of vector (0, n).
    for u in (np.array([1.0j]), _unimodular(2, 3), u, fl.bjorck(13),
              _unimodular(16, 4), fl.bjorck(67)):
        d = len(u)
        rows = fl.gabor_frame(u).vectors
        for m in range(d):
            for n in range(d):
                assert np.array_equal(
                    rows[m * d + n], np.roll(rows[n], m)), (d, m, n)


def test_gabor_coherence_equals_ambiguity_peak():
    u = fl.bjorck(13)
    f = fl.gabor_frame(u)
    peak = fl.ambiguity(u).peak_off_origin()
    assert_allclose(fl.coherence(f), peak, atol=1e-12)


@pytest.mark.parametrize("make, p", [
    (fl.bjorck, 13), (fl.bjorck, 23), (fl.quadratic_phase, 9),
])
def test_gabor_report_matches_numpy_oracles(make, p):
    u = make(p)
    f, report = fl.analyze_gabor(u)
    x = f.vectors
    assert f.vectors.tobytes() == fl.gabor_frame(u).vectors.tobytes()
    assert (report.length, report.num_vectors) == (p, p * p)
    assert report.tight_constant == p
    oracle = np.max(np.abs(x.T @ x.conj() - p * np.eye(p)))
    assert report.tight_deviation == oracle
    gram = np.abs(x.conj() @ x.T)
    np.fill_diagonal(gram, 0.0)
    assert_allclose(report.coherence, gram.max(), rtol=0, atol=1e-12)
    assert report.coherence == fl.ambiguity(u).peak_off_origin()
    if make is fl.bjorck:
        assert report.coherence <= fl.bjorck_peak_bound(p)
    assert report.tol == fl.DEFAULT_TOL


# A length-1 sequence has a one-vector frame and no coherence.
PAIRED_BATTERY = [(name, u) for name, u in SHIFT_BATTERY if len(u) > 1]


@pytest.mark.parametrize(
    "name, u", PAIRED_BATTERY, ids=[name for name, _ in PAIRED_BATTERY])
def test_gabor_report_coherence_is_the_gram_coherence(name, u):
    # The table's off-origin peak and the Gram pass over the frame's
    # pairs are two routes to one magnitude, apart only by rounding.
    assert_allclose(fl.analyze_gabor(u)[1].coherence,
                    fl.coherence(fl.gabor_frame(u)), rtol=0, atol=1e-14)


def test_gabor_report_forms_no_gram_matrix(monkeypatch):
    def gram_pass(*args, **kwargs):
        raise AssertionError("the Gram pass ran")

    monkeypatch.setattr(frames, "_pair_stats", gram_pass)
    u = fl.bjorck(13)
    _, report = fl.analyze_gabor(u)
    assert report.coherence == fl.ambiguity(u).peak_off_origin()


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
    reason="long double is no wider than float64 here")
@pytest.mark.parametrize("d", [67, 127, 257])
@pytest.mark.parametrize("make", [
    fl.bjorck, fl.quadratic_phase, lambda d: _unimodular(d, 300 + d),
], ids=["bjorck", "quadratic", "random"])
def test_ambiguity_is_its_product_rounded_once_more(make, d):
    # The same lags and phases multiplied in long double: the float64
    # product is off by a few units of roundoff at every length, so no
    # length needs a compensated sum.
    u = make(d)
    ks = np.arange(d)
    phases = np.exp(-2j * math.pi * np.outer(ks, ks) / d)
    wide = (waveforms._lags(u).astype(np.clongdouble)
            @ phases.astype(np.clongdouble)) / d
    err = np.max(np.abs(fl.ambiguity(u).values - wide))
    assert err <= 1e-15, err


def test_gabor_report_rejects_what_its_parts_reject():
    with pytest.raises(fl.NotUnimodularError):
        fl.analyze_gabor(np.array([1.0, 0.5, 1.0], dtype=complex))
    with pytest.raises(fl.TooFewVectorsError,
                       match="^coherence needs at least two vectors$"):
        fl.analyze_gabor(np.array([1.0j]))


def test_gabor_rejects_non_unimodular():
    with pytest.raises(fl.NotUnimodularError):
        fl.gabor_frame(np.array([1.0, 0.5, 1.0], dtype=complex))
    with pytest.raises(fl.InputError):
        fl.gabor_frame(np.ones((2, 2), dtype=complex))


def test_ambiguity_csv_round_and_format():
    u = fl.quadratic_phase(3)
    text = fl.ambiguity_to_csv(fl.ambiguity(u))
    lines = text.strip().split("\n")
    assert len(lines) == 3
    assert all(len(line.split(",")) == 3 for line in lines)
    parsed = np.array([[float(v) for v in line.split(",")] for line in lines])
    assert_allclose(parsed, fl.ambiguity(u).magnitudes(), atol=1e-15)
    assert text.endswith("\n")


def test_sequence_json_roundtrip():
    u = fl.bjorck(5)
    blob = fl.canonical_json(fl.sequence_to_json(u))
    back = fl.sequence_from_json(fl.parse_json(blob))
    assert np.array_equal(u, back)
    with pytest.raises(fl.InputError):
        fl.sequence_from_json({"length": 2, "entries": [[1.0, 0.0]]})
