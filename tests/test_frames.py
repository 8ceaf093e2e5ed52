import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import framelab as fl
from framelab import Frame, SplitMix64
from framelab.serialize import frame_from_json, frame_to_json


def test_frame_dtype_normalization():
    f = Frame(np.eye(2, dtype=int), "R")
    assert f.vectors.dtype == np.float64
    g = Frame(np.eye(2), "C")
    assert g.vectors.dtype == np.complex128
    # complex data with exactly zero imaginary part may be tagged real
    h = Frame(np.eye(2, dtype=complex), "R")
    assert h.vectors.dtype == np.float64


def test_frame_rejects_garbage():
    with pytest.raises(fl.InputError):
        Frame(np.array([1.0, 2.0]), "R")  # 1-d
    with pytest.raises(fl.InputError):
        Frame(np.eye(2), "Q")
    with pytest.raises(fl.InputError):
        Frame(np.array([[1.0, np.inf]]), "R")
    with pytest.raises(fl.InputError):
        Frame(np.array([[1.0 + 1.0j, 0.0]]), "R")
    with pytest.raises(fl.InputError):
        Frame(np.zeros((0, 2)), "R")


def test_frame_operator_definition():
    # operator must act as sum of rank-one projections of the rows
    rng = SplitMix64(3)
    x = rng.complex_gaussians((4, 3))
    f = Frame(x, "C")
    s = fl.frame_operator(f)
    direct = np.zeros((3, 3), dtype=complex)
    for row in x:
        direct += np.outer(row, row.conj())
    assert_allclose(s, direct, atol=1e-13)


def test_frame_bounds_vs_lapack():
    rng = SplitMix64(8)
    for _ in range(20):
        x = rng.complex_gaussians((6, 3))
        f = Frame(x, "C")
        lo, hi = fl.frame_bounds(f)
        ref = np.linalg.eigvalsh(fl.frame_operator(f))
        assert_allclose([lo, hi], [ref[0], ref[-1]], atol=1e-9)


def test_standard_onb_is_parseval():
    for field in ("R", "C"):
        f = fl.standard_onb(3, field)
        assert fl.is_parseval(f)
        assert fl.frame_bounds(f) == (1.0, 1.0)


def test_random_onb_orthonormal_both_fields():
    for field in ("R", "C"):
        f = fl.random_onb(5, seed=77, field=field)
        gram = f.vectors @ f.vectors.conj().T
        assert_allclose(gram, np.eye(5), atol=1e-12)
    # one Gram-Schmidt pass left this basis orthonormal only to 9.7e-9
    x = fl.random_onb(4, seed=1324078862819464509, field="R").vectors
    assert_allclose(x @ x.T, np.eye(4), atol=1e-12)
    # deterministic in the seed
    a = fl.random_onb(4, seed=5).vectors
    b = fl.random_onb(4, seed=5).vectors
    assert np.array_equal(a, b)


# SHA-256 prefixes of random_onb over seeds 0, 1, 2, 7919 and 2**64 - 1,
# pinned before the Gaussian block was drawn in one call.
RANDOM_ONB_DIGESTS = {
    ("R", 1): "b95d2f5efaf8298122a46e5a799fb571",
    ("R", 2): "6303deb0356854b1a89382dc76b3bfd9",
    ("R", 3): "c6b2769302a8c19a5f07d8b82629fead",
    ("R", 4): "f521dd7ff6a7bac0851bddccdee32c80",
    ("R", 5): "bffe86e0d1563d090fb9e5206275212e",
    ("R", 6): "9918a212a6dd974213360d4395444741",
    ("R", 7): "ac9aa81784c6b6ed44e9eeba088ce502",
    ("R", 8): "6c48fb89ddc3df14d2dde734e3069b39",
    ("C", 1): "4205d6121a8dab7181b056e2024f5022",
    ("C", 2): "e1eefe2fd5114469c164901f48c15cac",
    ("C", 3): "741210d4c38e6af638d9682bd830dfbd",
    ("C", 4): "2c957116538f3ffb102efccbe008cb2b",
    ("C", 5): "500334347c99b7e4bc799de48e4f61fd",
    ("C", 6): "2ac3920a5eec65742ee8260b1afad81d",
    ("C", 7): "e0d8758b31a4d0ff0e3f2041ed55b441",
    ("C", 8): "966e4c649ec4f72509a41e893ed8bc38",
}


@pytest.mark.parametrize("field, d", sorted(RANDOM_ONB_DIGESTS))
def test_random_onb_bytes_are_pinned(field, d):
    h = hashlib.sha256()
    for seed in (0, 1, 2, 7919, 2**64 - 1):
        v = fl.random_onb(d, seed=seed, field=field).vectors
        h.update(f"{v.dtype.str}{v.shape}".encode())
        h.update(v.tobytes())
    assert h.hexdigest()[:32] == RANDOM_ONB_DIGESTS[field, d]


def test_frame_rejects_non_finite_imaginary_parts_alone():
    for bad in (np.inf, -np.inf, np.nan):
        vectors = np.array([[1.0, complex(0.0, bad)]])
        with pytest.raises(fl.InputError,
                           match="^frame contains non-finite entries$"):
            Frame(vectors, "C")
        with pytest.raises(
                fl.InputError,
                match="^real frame has nonzero imaginary parts$"):
            Frame(vectors, "R")


@pytest.mark.parametrize("make", [
    lambda: fl.random_parseval(3, 7, seed=5, field="R"),
    lambda: fl.harmonic_frame(2, 5),
    lambda: Frame(np.array([[1.0, 0.1], [0.0, 0.9]]), "R"),
])
def test_parseval_verdicts_judge_the_largest_entry_of_s_minus_identity(make):
    f = make()
    x = f.vectors
    dev = float(np.max(np.abs(x.T @ x.conj() - np.eye(f.dim))))
    below = math.nextafter(dev, 0.0)
    assert fl.is_parseval(f, dev) and not fl.is_parseval(f, below)
    assert fl.analyze_frame(f, dev).is_parseval
    assert not fl.analyze_frame(f, below).is_parseval


def test_canonical_parseval_makes_parseval():
    rng = SplitMix64(12)
    for field in ("R", "C"):
        for d, n in ((1, 3), (2, 2), (3, 7), (5, 6)):
            raw = (
                rng.complex_gaussians((n, d))
                if field == "C"
                else rng.gaussians((n, d))
            )
            g = fl.canonical_parseval(Frame(raw, field))
            assert g.field == field
            lo, hi = fl.frame_bounds(g)
            assert abs(lo - 1.0) <= 1e-10 and abs(hi - 1.0) <= 1e-10
            assert float(g.norms().max()) <= 1.0 + 1e-12


def test_canonical_parseval_fixes_parseval_frames():
    f = fl.harmonic_frame(2, 5)
    g = fl.canonical_parseval(f)
    assert_allclose(g.vectors, f.vectors, atol=1e-12)


def test_canonical_parseval_rejects_non_spanning():
    bad = Frame(np.array([[1.0, 0.0], [2.0, 0.0]]), "R")
    with pytest.raises(
        fl.NotAFrameError,
        match=r"^vectors do not span: smallest frame-operator eigenvalue "
              r"is 0\.000e\+00$",
    ):
        fl.canonical_parseval(bad)


def povm_from_frame_grouped(f):
    return fl.povm_from_frame_grouped(f, [[0, 1], [2]])


@pytest.mark.parametrize("run", [fl.frame_bounds, fl.analyze_frame,
                                 fl.canonical_parseval, fl.is_parseval,
                                 fl.frame_potential, fl.povm_from_frame,
                                 povm_from_frame_grouped],
                         ids=lambda fn: fn.__name__)
def test_an_overflowing_frame_operator_is_named(run):
    # Finite vectors whose frame operator overflows were rejected by the
    # eigensolver's array rule as "matrix contains non-finite entries",
    # is_parseval and frame_potential returned False and inf, and the
    # POVM builders called the frame not Parseval, off by inf.
    f = Frame([[1e200, 1e200], [1e200, -1e200], [1e200, 0.0]], "R")
    with pytest.warns(RuntimeWarning, match="overflow"), pytest.raises(
        fl.InputError, match="^frame operator overflows: sums of squared "
                             "vector entries exceed the float64 range$"):
        run(f)


def test_simplex_frozen_d2():
    f = fl.simplex_etf(2)
    expect = np.array(
        [[1.0, 0.0], [-0.5, math.sqrt(3.0) / 2.0], [-0.5, -math.sqrt(3.0) / 2.0]]
    )
    assert_allclose(f.vectors, expect, atol=1e-12)


def test_simplex_properties_up_to_d8():
    for d in range(1, 9):
        f = fl.simplex_etf(d)
        assert len(f) == d + 1
        assert_allclose(f.norms(), np.ones(d + 1), atol=1e-12)
        lo, hi = fl.frame_bounds(f)
        assert_allclose([lo, hi], [(d + 1) / d, (d + 1) / d], atol=1e-10)
        equi, angle = fl.is_equiangular(f)
        assert equi
        assert_allclose(angle, 1.0 / d, atol=1e-12)


def test_harmonic_parseval_and_norms():
    for d, n in ((2, 3), (2, 5), (3, 7), (4, 9), (3, 3)):
        f = fl.harmonic_frame(d, n)
        assert fl.is_parseval(f)
        assert_allclose(f.norms(), math.sqrt(d / n) * np.ones(n), atol=1e-13)


def test_harmonic_selector_validation():
    f = fl.harmonic_frame(2, 6, selector=(2, 5))
    assert fl.is_parseval(f)
    with pytest.raises(fl.BadSelectorError):
        fl.harmonic_frame(2, 6, selector=(5, 2))
    with pytest.raises(fl.BadSelectorError):
        fl.harmonic_frame(2, 6, selector=(0, 3))
    with pytest.raises(fl.BadSelectorError):
        fl.harmonic_frame(2, 6, selector=(1, 7))
    with pytest.raises(fl.BadSelectorError):
        fl.harmonic_frame(2, 6, selector=(1, 2, 3))
    with pytest.raises(fl.BadCardinalityError):
        fl.harmonic_frame(4, 3)


def test_welch_bound_values():
    assert fl.welch_bound(3, 3) == 0.0
    assert_allclose(fl.welch_bound(3, 2), 0.5)
    assert_allclose(fl.welch_bound(4, 2), math.sqrt(2.0 / 6.0))
    with pytest.raises(fl.BadCardinalityError):
        fl.welch_bound(2, 3)
    # d = 0 is below the dimension's own floor: bad input, not a relation
    with pytest.raises(fl.InputError, match="^dimension must be at least 1$"):
        fl.welch_bound(0, 0)


def test_coherence_requirements():
    f = fl.standard_onb(2)
    assert fl.coherence(f) == 0.0
    with pytest.raises(fl.TooFewVectorsError):
        fl.coherence(Frame(np.array([[1.0, 0.0]]), "R"))
    with pytest.raises(fl.NotUnitNormError):
        fl.coherence(Frame(np.array([[2.0, 0.0], [0.0, 1.0]]), "R"))


def test_coherence_never_beats_welch():
    rng = SplitMix64(21)
    for _ in range(25):
        d = 2 + rng.below(3)
        n = d + 1 + rng.below(4)
        raw = rng.complex_gaussians((n, d))
        norms = np.sqrt(np.sum(np.abs(raw) ** 2, axis=1))
        f = Frame(raw / norms[:, None], "C")
        assert fl.coherence(f) >= fl.welch_bound(n, d) - 1e-12


def test_is_equiangular_negative():
    f = Frame(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]) , "R")
    equi, angle = fl.is_equiangular(f)
    assert not equi and angle is None
    with pytest.raises(fl.TooFewVectorsError):
        fl.is_equiangular(Frame(np.ones((1, 2)), "R"))


def test_frame_potential_of_parseval_is_dim():
    # trace of the squared frame operator, and the operator is I
    for d, n in ((2, 5), (3, 4), (4, 9)):
        f = fl.random_parseval(d, n, seed=d * 100 + n)
        assert_allclose(fl.frame_potential(f), float(d), atol=1e-10)
    # and for a unit-norm frame it is at least N^2/d (tightness bound)
    f = fl.simplex_etf(3)
    assert fl.frame_potential(f) >= 16.0 / 3.0 - 1e-12


def test_with_zeros():
    f = fl.with_zeros(fl.standard_onb(2), 3)
    assert len(f) == 5
    assert fl.is_parseval(f)
    assert_allclose(f.vectors[2:], np.zeros((3, 2)))
    same = fl.with_zeros(f, 0)
    assert same.vectors.tobytes() == f.vectors.tobytes()
    assert not np.shares_memory(same.vectors, f.vectors)
    with pytest.raises(fl.InputError,
                       match="^cannot append a negative number of zeros$"):
        fl.with_zeros(f, -1)


def test_analyze_frame_report_fields():
    r = fl.analyze_frame(fl.simplex_etf(2))
    assert r.num_vectors == 3 and r.dim == 2 and r.field == "R"
    assert r.is_tight and not r.is_parseval
    assert r.is_unit_norm and r.is_equiangular
    assert_allclose(r.coherence, 0.5, atol=1e-12)
    assert_allclose(r.welch_bound, 0.5, atol=1e-15)
    assert_allclose(r.common_angle, 0.5, atol=1e-12)

    r2 = fl.analyze_frame(fl.random_parseval(3, 5, seed=4))
    assert r2.is_parseval and r2.is_tight
    assert r2.coherence is None  # not unit norm
    assert_allclose(r2.frame_potential, 3.0, atol=1e-10)


def test_analyze_frame_forms_the_frame_operator_once(monkeypatch):
    frames = (fl.simplex_etf(3), fl.random_parseval(3, 5, seed=4),
              fl.gabor_frame(fl.bjorck(7)))
    expected = [(fl.frame_bounds(f), fl.is_parseval(f), fl.frame_potential(f))
                for f in frames]
    formed = []
    form = fl.frames.frame_operator
    monkeypatch.setattr(fl.frames, "frame_operator",
                        lambda f: formed.append(f) or form(f))
    for f, want in zip(frames, expected):
        r = fl.analyze_frame(f)
        # the same S, so the same bits as the public functions
        assert ((r.lower_bound, r.upper_bound), r.is_parseval,
                r.frame_potential) == want
    assert formed == list(frames)


def test_frame_json_roundtrip_exact():
    for f in (
        fl.random_parseval(3, 5, seed=6),
        fl.simplex_etf(3),
        fl.harmonic_frame(2, 5),
    ):
        g = frame_from_json(frame_to_json(f))
        assert g.field == f.field
        assert np.array_equal(g.vectors, f.vectors)


def test_frame_json_rejects_malformed():
    with pytest.raises(fl.InputError):
        frame_from_json({"dim": 2, "field": "R"})
    with pytest.raises(fl.InputError):
        frame_from_json({"dim": 2, "field": "R", "vectors": [[1.0]]})
    with pytest.raises(fl.InputError):
        frame_from_json({"dim": 1, "field": "C", "vectors": [["1", "0"]]})
    with pytest.raises(fl.InputError):
        frame_from_json({"dim": 1, "field": "C", "vectors": [[[1.0, 0.0, 0.0]]]})
    with pytest.raises(fl.InputError):
        frame_from_json({"dim": 0, "field": "R", "vectors": []})
    # bare numbers are accepted as real entries of a complex vector
    f = frame_from_json({"dim": 1, "field": "C", "vectors": [[1.0]]})
    assert f.vectors.dtype == np.complex128


def _assert_matches_gram_oracle(f):
    g = f.vectors @ f.vectors.conj().T
    mags = np.abs(g)[np.triu_indices(len(f), 1)]
    assert_allclose(fl.frame_potential(f), np.sum(np.abs(g) ** 2), rtol=1e-12)
    equi, angle = fl.is_equiangular(f)
    assert equi == bool(mags.max() - mags.min() <= fl.DEFAULT_TOL)
    if equi:
        assert_allclose(angle, mags.mean(), rtol=1e-12)
    else:
        assert angle is None
    report = fl.analyze_frame(f)
    assert (report.is_equiangular, report.common_angle) == (equi, angle)
    assert report.frame_potential == fl.frame_potential(f)

    unit = Frame(f.vectors / f.norms()[:, None], f.field)
    g = unit.vectors @ unit.vectors.conj().T
    mags = np.abs(g)[np.triu_indices(len(unit), 1)]
    assert_allclose(fl.coherence(unit), mags.max(), rtol=1e-12, atol=1e-15)
    assert fl.analyze_frame(unit).coherence == fl.coherence(unit)


@pytest.mark.parametrize("make", [
    lambda: Frame(np.array([[1.0, 0.0], [0.6, 0.8]]), "R"),
    lambda: fl.random_parseval(3, 8, seed=5, field="R"),
    lambda: fl.random_parseval(4, 11, seed=9),
    lambda: fl.simplex_etf(4),
    lambda: fl.harmonic_frame(3, 7, (1, 2, 4)),
    lambda: fl.gabor_frame(fl.bjorck(37)),
], ids=["n2", "real-random", "complex-random", "simplex4", "harmonic7",
        "gabor37"])
def test_gram_diagnostics_match_full_gram_oracle(make):
    _assert_matches_gram_oracle(make())


def test_gram_diagnostics_across_block_boundaries(monkeypatch):
    # Three rows per block over eleven vectors leaves a short last
    # block; one row per block leaves no pair inside a block.
    f = fl.random_parseval(3, 11, seed=2)
    monkeypatch.setattr(fl.frames, "_GRAM_BLOCK_BYTES", 3 * 16 * 11)
    _assert_matches_gram_oracle(f)
    monkeypatch.setattr(fl.frames, "_GRAM_BLOCK_BYTES", 1)
    _assert_matches_gram_oracle(fl.simplex_etf(4))


def test_equiangular_frames_report_their_angle():
    equi, angle = fl.is_equiangular(fl.simplex_etf(4))
    assert equi
    assert_allclose(angle, 0.25, rtol=1e-14)
    equi, angle = fl.is_equiangular(fl.harmonic_frame(3, 7, (1, 2, 4)))
    assert equi
    assert_allclose(angle, math.sqrt(2.0) / 7.0, rtol=1e-14)


def test_analyze_frame_never_forms_the_gram_matrix():
    # The Gram matrix of this 1369-vector frame takes 30 MB.
    f = fl.gabor_frame(fl.bjorck(37))
    tracemalloc.start()
    try:
        fl.analyze_frame(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
