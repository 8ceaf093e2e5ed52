import dataclasses
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

import framelab as fl
from framelab import Frame, SplitMix64


E = math.e


def grid_zero_count(a, b, c, points=100_000):
    """Independent oracle: count sign changes of the quadratic form
    a x^2 + 2b xy + c y^2 around the circle, including the wrap."""
    t = np.linspace(0.0, 2.0 * math.pi, points, endpoint=False)
    f = (a + c) / 2.0 + ((a - c) / 2.0) * np.cos(2.0 * t) + b * np.sin(2.0 * t)
    s = np.signbit(f)
    return int(np.count_nonzero(s != np.roll(s, 1)))


# --- constructions ---------------------------------------------------------


def test_quadratic_gleason_values_and_weight():
    a = np.array([[2.0, 1.0], [1.0, 3.0]])
    g = fl.quadratic_gleason(a)
    assert g.field == "R" and g.dim == 2
    x = np.array([0.6, 0.8])
    assert_allclose(g(x), x @ a @ x, atol=1e-14)
    gc = fl.quadratic_gleason(a, const=0.5)
    assert_allclose(gc(x), x @ a @ x + 0.5, atol=1e-14)
    zero = np.zeros(2)
    assert gc(zero) == 0.5


def test_quadratic_gleason_complex_conjugation():
    a = np.array([[1.0, 1.0j], [-1.0j, 2.0]])
    g = fl.quadratic_gleason(a)
    assert g.field == "C"
    x = np.array([1.0, 1.0j]) / math.sqrt(2.0)
    assert_allclose(g(x), np.vdot(x, a @ x).real, atol=1e-14)


def test_quadratic_gleason_rejects_non_hermitian():
    with pytest.raises(fl.NotHermitianError):
        fl.quadratic_gleason(np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(fl.NotSquareError):
        fl.quadratic_gleason(np.ones((2, 3)))
    for bad in (np.nan, np.inf):
        with pytest.raises(fl.InputError):
            fl.quadratic_gleason(np.array([[1.0, 0.0], [0.0, bad]]))
    with pytest.raises(fl.InputError):
        fl.quadratic_gleason(np.zeros((0, 0)))


def test_eval_guards():
    g = fl.quadratic_gleason(np.eye(2))
    with pytest.raises(fl.OutOfBallError):
        g(np.array([2.0, 0.0]))
    with pytest.raises(fl.InputError):
        g(np.array([1.0, 0.0, 0.0]))
    with pytest.raises(fl.InputError):
        g(np.array([1.0j, 0.0]))  # real-field function, complex point


def _pointwise(fn, dim, field):
    # A function of one vector, evaluated row by row over each block.
    return fl.GleasonFn(dim=dim, field=field, kind="custom",
                        fn=lambda x: [complex(fn(r)) for r in x])


# Every kind of function, for the block-versus-pointwise check.
BLOCK_KINDS = {
    "quadratic-R": lambda: fl.quadratic_gleason(
        fl.random_hermitian(3, seed=1, field="R"), const=0.25),
    "quadratic-C": lambda: fl.quadratic_gleason(
        fl.random_hermitian(4, seed=2, field="C")),
    "expnorm-R": lambda: fl.expnorm_gleason(9, field="R"),
    "expnorm-C": lambda: fl.expnorm_gleason(9, field="C"),
    "cos2d": lambda: fl.cos_counterexample(6),
    "rational_indicator": fl.rational_indicator_counterexample,
    "epsilon1d": lambda: fl.epsilon_1d_counterexample(0.2),
    "effect_measure": lambda: fl.gleason_from_effect_measure(
        lambda e: float(np.trace(np.diag([0.5, 0.3, 0.2]) @ e).real), 3),
    "custom-R": lambda: _pointwise(
        lambda x: float(x[0] ** 3 - x[-1]), 3, "R"),
    "custom-C": lambda: _pointwise(
        lambda x: complex(x[0] * x[1].conjugate()), 2, "C"),
}


def _ball_block(g, seed):
    # Zero rows, rows on the sphere and interior rows, in the field of g.
    rng = SplitMix64(seed)
    d = g.dim
    if g.field == "C":
        raw = rng.complex_gaussians((7, d))
    else:
        raw = rng.gaussians((7, d))
    rows = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    rows[1::2] *= np.array([0.5, 0.25, 0.9])[:, None]
    rows[4] = 0.0
    rows = np.vstack([np.zeros((1, d), dtype=rows.dtype), rows])
    if g.kind == "epsilon1d":
        rows[1:3, 0] = math.sqrt(0.2), math.sqrt(0.8)  # the swapped points
    return rows


@pytest.mark.parametrize("name", sorted(BLOCK_KINDS))
def test_values_equal_pointwise_calls_bit_for_bit(name):
    g = BLOCK_KINDS[name]()
    block = _ball_block(g, seed=len(name))
    layouts = [block, np.asfortranarray(block), block.astype(np.complex128)]
    for b in layouts:
        got = g.values(b)
        want = np.array([complex(g(r)) for r in b], dtype=np.complex128)
        assert got.dtype == np.complex128 and got.shape == (len(b),)
        assert got.tobytes() == want.tobytes()
    assert g.values(block[:0]).shape == (0,)


def test_values_guards():
    g = fl.quadratic_gleason(np.eye(2))
    with pytest.raises(fl.InputError, match="block"):
        g.values(np.array([0.6, 0.8]))
    with pytest.raises(fl.InputError, match="block"):
        g.values(np.zeros((3, 3)))
    with pytest.raises(fl.InputError, match="complex"):
        g.values(np.array([[0.6, 0.0], [0.0, 0.5j]]))
    with pytest.raises(fl.OutOfBallError,
                       match="^argument norm 2.000000 leaves the unit ball$"):
        g.values(np.array([[0.6, 0.8], [0.0, 0.0], [2.0, 0.0], [3.0, 0.0]]))
    gc = fl.expnorm_gleason(2, field="C")
    assert gc.values(np.array([[0.6, 0.8j]]))[0] == pytest.approx(math.e - 1)


@pytest.mark.parametrize("block, message", [
    (np.array([[0.6, 0.0], [np.nan, 0.0]]), "block contains non-finite"),
    (np.array([[np.inf, 0.0]]), "block contains non-finite"),
    (np.array([[0.6, None]], dtype=object), "block must be numeric"),
    (np.array([[0.6, complex(0.0, np.nan)]]), "evaluated at a complex"),
], ids=["nan", "inf", "none", "nan-imaginary"])
def test_values_apply_the_array_rule(block, message):
    # A NaN row once passed the ball test and None became NaN, so both
    # evaluated; a NaN imaginary part over R was dropped; an inf row
    # raised OutOfBallError rather than an input error.
    g = fl.quadratic_gleason(np.eye(2))
    with pytest.raises(fl.InputError, match=message):
        g.values(block)
    with pytest.raises(fl.InputError, match=message):
        g(block[-1])


@pytest.mark.parametrize("make", [
    lambda: fl.expnorm_gleason(2, field="X"),
    lambda: fl.gleason_from_effect_measure(lambda e: 0.0, 2, field="X"),
    lambda: _pointwise(lambda x: 0.0, 2, "X"),
    lambda: fl.GleasonFn(dim=2, field="c", kind="custom", fn=lambda x: 0.0),
], ids=["expnorm", "effect_measure", "custom", "direct"])
def test_gleason_functions_reject_unknown_field(make):
    with pytest.raises(fl.InputError, match="field must be 'R' or 'C'"):
        make()


def test_expnorm_values():
    g = fl.expnorm_gleason(3)
    assert_allclose(g(np.array([1.0, 0, 0], dtype=complex)), E - 1.0)
    assert g(np.zeros(3, dtype=complex)) == 0.0
    half = np.array([0.5, 0.5, 0.5], dtype=complex)
    assert_allclose(g(half), math.expm1(0.75), atol=1e-15)


def test_cos_counterexample_values():
    g = fl.cos_counterexample(2)
    # 1 + cos(2t) = 2 x^2 on the circle
    for t in (0.0, 0.3, 1.2, 3.0):
        x = np.array([math.cos(t), math.sin(t)])
        assert_allclose(g(x), 2.0 * x[0] ** 2, atol=1e-12)
    # r^2 extension
    assert_allclose(g(np.array([0.5, 0.0])), 0.25 * 2.0 * 1.0, atol=1e-14)
    assert g(np.zeros(2)) == 0.0
    with pytest.raises(fl.BadNError):
        fl.cos_counterexample(4)
    with pytest.raises(fl.BadNError):
        fl.cos_counterexample(3)
    # negative indices in the right class are fine
    assert fl.cos_counterexample(-6).params["n"] == -6


def test_rational_indicator_branch_values():
    g = fl.rational_indicator_counterexample()
    # pi/4 is a rational multiple of pi
    x = np.array([math.cos(math.pi / 4), math.sin(math.pi / 4)])
    assert g(x) == 1.0
    # angle 1 radian is not
    y = np.array([math.cos(1.0), math.sin(1.0)])
    assert g(y) == 0.0
    # second quadrant complements the first
    x2 = np.array([math.cos(math.pi / 4 + math.pi / 2), math.sin(math.pi / 4 + math.pi / 2)])
    assert g(x2) == 0.0
    y2 = np.array([math.cos(1.0 + math.pi / 2), math.sin(1.0 + math.pi / 2)])
    assert g(y2) == 1.0
    # antipodal invariance and r^2 scaling
    assert g(-y) == g(y)
    assert_allclose(g(0.5 * x), 0.25, atol=1e-14)


def test_epsilon_1d_branch_values():
    g = fl.epsilon_1d_counterexample(0.2)
    assert_allclose(g(np.array([math.sqrt(0.2)])), 0.8, atol=1e-14)
    assert_allclose(g(np.array([math.sqrt(0.8)])), 0.2, atol=1e-14)
    assert_allclose(g(np.array([0.7])), 0.49, atol=1e-14)
    assert g(np.zeros(1)) == 0.0
    for bad in (0.0, 1.0 / 3.0, 0.4, -0.1):
        with pytest.raises(fl.BadEpsilonError):
            fl.epsilon_1d_counterexample(bad)


@pytest.mark.parametrize("eps, message", [
    ("0.1", "epsilon must be a number, got '0.1'"),
    (True, "epsilon must be a number, got True"),
    (np.array([0.1]), "epsilon must be a number, got array([0.1])"),
    (0.1j, "epsilon must be a number, got 0.1j"),
    (math.nan, "epsilon must be finite, got nan"),
], ids=["numeric-string", "bool", "array", "complex", "nan"])
def test_epsilon_follows_the_number_rule(eps, message):
    # "0.1" built a function with eps 0.1, an array raised a bare
    # TypeError, and True and NaN raised BadEpsilonError.
    with pytest.raises(fl.InputError, match=f"^{re.escape(message)}$"):
        fl.epsilon_1d_counterexample(eps)


def test_epsilon_takes_real_numbers():
    for eps in (Fraction(1, 5), np.float32(0.25), np.float64(0.2)):
        g = fl.epsilon_1d_counterexample(eps)
        assert type(g.params["eps"]) is float
        assert g.params["eps"] == float(eps)


# --- verify over orthonormal bases ----------------------------------------


def test_verify_onb_quadratic_weight_is_trace():
    # The last case once failed: a random basis it drew was orthonormal
    # only to 1.1e-10, above the default tolerance.
    cases = (
        ("R", 10, 40, 2),
        ("C", 10, 40, 2),
        ("R", 2634247898, 12, 1455013423),
    )
    for field, a_seed, trials, seed in cases:
        a = fl.random_hermitian(3, seed=a_seed, field=field)
        g = fl.quadratic_gleason(a)
        report = fl.verify_onb_gleason(g, trials=trials, seed=seed)
        assert report.passed
        assert_allclose(
            complex(report.mean_weight).real, float(np.trace(a).real), atol=1e-10
        )


def test_verify_onb_cos_family():
    for n in (2, 6, 10, -6):
        g = fl.cos_counterexample(n)
        report = fl.verify_onb_gleason(g, trials=60, seed=n & 0xFFFF)
        assert report.passed, f"n={n} spread {report.max_deviation}"
        assert_allclose(complex(report.mean_weight).real, 2.0, atol=1e-12)


def test_verify_onb_rational_indicator_exact():
    g = fl.rational_indicator_counterexample()
    report = fl.verify_onb_gleason(g, trials=80, seed=5)
    assert report.passed
    assert report.max_deviation <= 1e-12
    assert_allclose(complex(report.mean_weight).real, 1.0, atol=1e-12)


def test_verify_onb_expnorm_weight():
    for d in (2, 3, 4):
        g = fl.expnorm_gleason(d)
        report = fl.verify_onb_gleason(g, trials=30, seed=d)
        assert report.passed
        assert_allclose(
            complex(report.mean_weight).real, d * (E - 1.0), atol=1e-12
        )


def test_verify_onb_detects_a_non_frame_function():
    # x -> x_0^4 is not a frame function; rotations expose it
    g = _pointwise(lambda x: float(x[0].real) ** 4, 2, "R")
    report = fl.verify_onb_gleason(g, trials=50, seed=1)
    assert not report.passed
    assert report.max_deviation > 0.1
    low, high = report.witness_low, report.witness_high
    assert complex(high[1]).real - complex(low[1]).real > 0.1


# --- verify over Parseval frames -------------------------------------------


def test_verify_parseval_quadratic_any_size():
    a = fl.random_hermitian(2, seed=21)
    g = fl.quadratic_gleason(a)
    for n in (2, 3, 5, 8):
        report = fl.verify_parseval_gleason(g, n, trials=25, seed=n)
        assert report.passed
        assert_allclose(
            complex(report.mean_weight).real, float(np.trace(a).real), atol=1e-10
        )


def test_verify_parseval_expnorm_splits_by_frame():
    g = fl.expnorm_gleason(2)
    report = fl.verify_parseval_gleason(g, 3, trials=30, seed=9)
    assert not report.passed
    # padded basis and harmonic frame realize the extreme sums
    assert_allclose(complex(report.witness_high[1]).real, 2.0 * E - 2.0, atol=1e-12)
    assert_allclose(
        complex(report.witness_low[1]).real, 3.0 * math.exp(2.0 / 3.0) - 3.0,
        atol=1e-12,
    )
    assert report.max_deviation > 0.1


def test_verify_parseval_epsilon_degree_two():
    g = fl.epsilon_1d_counterexample(0.25)
    report = fl.verify_parseval_gleason(g, 2, trials=200, seed=3)
    assert report.passed
    assert abs(complex(report.mean_weight).real - 1.0) <= 1e-12


def test_verify_parseval_epsilon_fails_degree_three():
    g = fl.epsilon_1d_counterexample(0.2)
    w = Frame(
        np.array([[math.sqrt(0.2)], [math.sqrt(0.2)], [math.sqrt(0.6)]]), "R"
    )
    total = sum(float(g(row)) for row in w.vectors)
    assert_allclose(total, 2.2, atol=1e-12)  # not the weight 1


def test_verify_parseval_requires_enough_vectors():
    g = fl.quadratic_gleason(np.eye(3))
    with pytest.raises(fl.BadCardinalityError):
        fl.verify_parseval_gleason(g, 2)


def test_effect_measure_restriction_is_degree_n():
    rho = fl.random_density(2, seed=17)
    g = fl.gleason_from_effect_measure(
        lambda e: float(np.trace(rho @ e).real), 2
    )
    report = fl.verify_parseval_gleason(g, 5, trials=25, seed=6)
    assert report.passed
    assert_allclose(complex(report.mean_weight).real, 1.0, atol=1e-10)


@pytest.mark.parametrize("dim, field", [(1, "R"), (2, "R"), (3, "C"),
                                         (4, "C")])
def test_effect_measure_sees_the_outer_products_bit_for_bit(dim, field):
    rho = fl.random_density(dim, seed=dim)
    seen = []

    def v(e):
        seen.append(e.copy())
        return complex(np.trace(rho @ e)) + 0.25j * e[0, -1]

    g = fl.gleason_from_effect_measure(v, dim, field=field)
    f = fl.random_parseval(dim, dim + 3, seed=9, field=field)
    x = f.vectors.astype(np.complex128)
    outer = np.array([np.outer(r, r.conj()) for r in x])
    values = g.values(f.vectors)
    assert np.array(seen).tobytes() == outer.tobytes()
    seen.clear()
    expected = np.array([v(e) for e in outer], dtype=np.complex128)
    assert values.tobytes() == expected.tobytes()


# --- one block per verification ---------------------------------------------


def _frames_one_by_one(g, trials, seed, n=None):
    # The trial frames as the verifiers once built them, one Frame per
    # trial: rotations or random_onb draws for bases, specimens then
    # random_parseval draws for Parseval frames.
    rng = SplitMix64(seed)
    if n is None:
        frames = []
        for _ in range(trials):
            if g.dim == 2 and g.field == "R":
                theta = 2.0 * math.pi * rng.uniform()
                c, s = math.cos(theta), math.sin(theta)
                frames.append(Frame(np.array([[c, s], [-s, c]]), "R"))
            else:
                frames.append(
                    fl.random_onb(g.dim, seed=rng.u64(), field=g.field))
        return frames
    frames = [fl.with_zeros(fl.standard_onb(g.dim, g.field), n - g.dim)]
    if g.field == "C":
        frames.append(fl.harmonic_frame(g.dim, n))
    frames = frames[:trials]
    while len(frames) < trials:
        frames.append(
            fl.random_parseval(g.dim, n, seed=rng.u64(), field=g.field))
    return frames


def _sums_one_by_one(g, frames):
    # One values call per frame, added in row order from 0.0 + 0.0j.
    sums = []
    for f in frames:
        total = 0.0 + 0.0j
        for value in g.values(f.vectors).tolist():
            total += value
        sums.append(total)
    return sums


# One function of each kind a verifier meets, over both fields.
STACKED_KINDS = {
    "quadratic-R": lambda: fl.quadratic_gleason(
        fl.random_hermitian(3, seed=4, field="R"), const=0.125),
    "quadratic-C": lambda: fl.quadratic_gleason(
        fl.random_hermitian(3, seed=5, field="C")),
    "expnorm": lambda: fl.expnorm_gleason(2, field="C"),
    "cos6": lambda: fl.cos_counterexample(6),
    "effect_measure": lambda: fl.gleason_from_effect_measure(
        lambda e: complex(np.trace(np.diag([0.7, 0.3]) @ e))
        + 0.01 * abs(e[0, 1]) ** 3, 2),
}


def _assert_report_is_one_by_one(report, g, frames):
    sums = _sums_one_by_one(g, frames)
    arr = np.array(sums, dtype=np.complex128)
    deviation = math.hypot(float(arr.real.max() - arr.real.min()),
                           float(arr.imag.max() - arr.imag.min()))
    demote = fl.gleason._demote_scalar
    assert report.trials == len(frames)
    assert report.mean_weight == demote(complex(arr.mean()))
    assert type(report.mean_weight) is type(demote(complex(arr.mean())))
    assert report.max_deviation == deviation
    for witness, i in ((report.witness_low, int(np.argmin(arr.real))),
                       (report.witness_high, int(np.argmax(arr.real)))):
        want = frames[i].vectors
        got = witness.frame.vectors
        assert witness.frame.field == g.field
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert witness.sum == demote(sums[i])


@pytest.mark.parametrize("trials", [1, 2, 12])
@pytest.mark.parametrize("name", sorted(STACKED_KINDS))
def test_frame_sums_of_a_stack_are_the_sums_frame_by_frame(name, trials):
    g = STACKED_KINDS[name]()
    frames = (_frames_one_by_one(g, trials, seed=trials)
              + _frames_one_by_one(g, trials, seed=trials, n=g.dim + 2))
    got = fl.gleason._frame_sums(g, [f.vectors for f in frames])
    want = _sums_one_by_one(g, frames)
    assert np.array(got).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("trials", [1, 2, 12])
@pytest.mark.parametrize("name", sorted(STACKED_KINDS))
def test_verify_onb_is_its_per_frame_reference(name, trials):
    g = STACKED_KINDS[name]()
    report = fl.verify_onb_gleason(g, trials=trials, seed=31 + trials)
    _assert_report_is_one_by_one(
        report, g, _frames_one_by_one(g, trials, seed=31 + trials))


@pytest.mark.parametrize("trials", [1, 2, 12])
@pytest.mark.parametrize("name", sorted(STACKED_KINDS))
def test_verify_parseval_is_its_per_frame_reference(name, trials):
    # Over C, two trials are the two specimens and no random frame.
    g = STACKED_KINDS[name]()
    n = g.dim + 2
    report = fl.verify_parseval_gleason(g, n, trials=trials, seed=trials)
    _assert_report_is_one_by_one(
        report, g, _frames_one_by_one(g, trials, seed=trials, n=n))


def test_a_non_finite_value_names_its_row_in_the_stacked_sample():
    # NaN strictly inside the ball: the padded basis (rows 0-3) sums,
    # and the harmonic frame's first vector is row 4 of the stack.
    def fn(x):
        return [complex(math.nan) if 0.0 < t < 0.999 else complex(t)
                for t in np.einsum("ij,ij->i", x, x.conj()).real.tolist()]

    g = fl.GleasonFn(dim=2, field="C", kind="probe", fn=fn)
    with pytest.raises(fl.InputError,
                       match=r"^probe function is \(nan\+0j\) at row 4$"):
        fl.verify_parseval_gleason(g, 4, trials=3)


@pytest.mark.parametrize("fn, got", [
    (lambda x: [1 + 0j], "list of shape (1,) and dtype complex128"),
    (lambda x: [0.5] * (len(x) + 1), "list of shape (3,) and dtype float64"),
    (lambda x: np.ones((len(x), 1)), "ndarray of shape (2, 1)"),
    (lambda x: None, "NoneType of shape () and dtype object"),
    (lambda x: "x", "str of shape ()"),
    (lambda x: ["0.5"] * len(x), "dtype <U3"),
    (lambda x: [[0.5], [0.5, 0.5]][:len(x)], "list of shape ()"),
    (lambda x: [True] * len(x), "dtype bool"),
], ids=["short", "long", "2-d", "none", "string", "numeric-strings",
        "ragged", "bools"])
def test_values_hold_fn_to_one_number_per_row(fn, got):
    # A short result once passed a verifier on the rows it covered, a
    # long or 2-D one came back as it was, numeric strings and bools
    # were converted, and None and "x" raised bare IndexError and
    # ValueError.
    g = fl.GleasonFn(dim=2, field="R", kind="bad", fn=fn)
    match = r"^bad function must return one number per row of its 2-row block"
    with pytest.raises(fl.InputError, match=match) as info:
        g.values(np.zeros((2, 2)))
    assert got in str(info.value)
    with pytest.raises(fl.InputError, match="^bad function must return"):
        fl.verify_onb_gleason(g, trials=3)


def test_a_short_result_no_longer_passes_the_basis_verifier():
    g = fl.GleasonFn(dim=2, field="R", kind="short", fn=lambda x: [1 + 0j])
    assert g(np.array([0.6, 0.8])) == 1.0  # a 1-row block is one value
    with pytest.raises(fl.InputError, match="6-row block"):
        fl.verify_onb_gleason(g, trials=3)


def test_values_take_any_numeric_array_and_keep_no_alias():
    held = np.array([0.5, 0.25j])
    g = fl.GleasonFn(dim=2, field="R", kind="held", fn=lambda x: held)
    out = g.values(np.zeros((2, 2)))
    assert out.tobytes() == held.tobytes() and not np.shares_memory(out, held)
    for dtype in (np.float32, np.int64, np.uint8):
        g = fl.GleasonFn(dim=2, field="R", kind="typed",
                         fn=lambda x, t=dtype: np.ones(len(x), dtype=t))
        out = g.values(np.zeros((3, 2)))
        assert out.dtype == np.complex128 and out.tolist() == [1.0] * 3


@pytest.mark.parametrize("const, message", [
    ("x", "constant must be a number, got 'x'"),
    ("0.5", "constant must be a number, got '0.5'"),
    (True, "constant must be a number, got True"),
    (0.5j, "constant must be a number, got 0.5j"),
    (math.nan, "constant must be finite, got nan"),
    (math.inf, "constant must be finite, got inf"),
    (-math.inf, "constant must be finite, got -inf"),
    (10 ** 400, "constant must be finite, got inf"),
], ids=["string", "numeric-string", "bool", "complex", "nan", "inf",
        "-inf", "huge-int"])
def test_quadratic_constant_follows_the_number_rule(const, message):
    # "x" raised a bare ValueError; "0.5" and True were taken; NaN and
    # infinity built a function whose every value then failed.
    with pytest.raises(fl.InputError, match=f"^{re.escape(message)}$"):
        fl.quadratic_gleason(np.eye(2), const=const)


def test_quadratic_constant_takes_real_numbers():
    for const in (1, np.float32(0.5), np.int64(2), Fraction(1, 4)):
        g = fl.quadratic_gleason(np.eye(2), const=const)
        assert type(g.params["const"]) is float
        assert g.params["const"] == float(const)
        assert g(np.zeros(2)) == float(const)


@pytest.mark.parametrize("field", ["R", "C"])
def test_quadratic_values_are_the_per_row_forms(field):
    # One stacked matrix-vector product and one dot per row give the
    # bits of np.vdot(x, a @ x) + const, row by row.
    for d in range(1, 9):
        g = fl.quadratic_gleason(
            fl.random_hermitian(d, seed=d, field=field), const=0.375)
        mat = g.params["operator"]
        x = np.ascontiguousarray(
            fl.random_parseval(d, d + 3, seed=d, field=g.field).vectors)
        want = np.array([complex(np.vdot(r, mat @ r)) + 0.375 for r in x])
        assert g.values(x).tobytes() == want.tobytes()


@pytest.mark.parametrize("field", ["R", "C"])
def test_fit_residual_is_the_per_point_residual(field):
    # A quadratic form plus a cubic term, so the residual is not 0; the
    # points are the block the fit evaluates, and each prediction is
    # np.vdot(x, a @ x) of the operator before demotion, which for this
    # function is the reported one.
    a = fl.random_hermitian(3, seed=8, field=field)
    blocks = []

    def fn(x):
        blocks.append(x)
        return [complex(np.vdot(r, a @ r)) + 0.1 * abs(r[0]) ** 3
                for r in x]

    g = fl.GleasonFn(dim=3, field=field, kind="custom", fn=fn)
    fit = fl.fit_quadratic(g, samples=64, seed=4)
    points = blocks[-1]
    assert len(points) == 64
    op = np.asarray(fit.operator)
    want = 0.0
    for x, value in zip(points, fn(points)):
        want = max(want, abs(value - complex(np.vdot(x, op @ x))))
    assert fit.residual == want > 1e-3


def test_each_verification_draws_its_trial_frames_as_one_stack(monkeypatch):
    # One orthonormalization pass per verification, over a generator
    # per random trial frame; specimens take none.
    calls = []
    rule = fl.frames._orthonormalize

    def spy(rngs, out, field):
        calls.append((len(rngs),) + out.shape[1:] + (field,))
        return rule(rngs, out, field)

    monkeypatch.setattr(fl.frames, "_orthonormalize", spy)
    g = fl.quadratic_gleason(fl.random_hermitian(3, seed=1, field="C"))
    fl.verify_onb_gleason(g, trials=12, seed=2)
    fl.verify_parseval_gleason(g, 5, trials=6, seed=2)
    fl.verify_parseval_gleason(g, 5, trials=2, seed=2)
    assert calls == [(12, 3, 3, "C"), (4, 3, 5, "C")]


@pytest.mark.parametrize("name, run, per_trial", [
    ("onb", lambda g, trials: fl.verify_onb_gleason(g, trials=trials,
                                                    seed=3), 600),
    ("parseval", lambda g, trials: fl.verify_parseval_gleason(
        g, 5, trials=trials, seed=3), 1000),
])
def test_a_verification_keeps_no_words_per_trial(name, run, per_trial):
    # The traced peak grows with trials by at most per_trial bytes a
    # trial: the stacked frames and their sums, and no block of words
    # for any trial's generator.  At d = 2 over C the word-by-word
    # generator grew by 492 and 788 bytes a trial; keeping every
    # generator's block after its draw grew by 3,660 and 3,750.
    g = fl.quadratic_gleason(fl.random_hermitian(2, seed=1))

    def peak(trials):
        tracemalloc.start()
        try:
            run(g, trials)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(2000) - peak(200) <= per_trial * 1800, name


# --- sample directions -----------------------------------------------------


def _directions_one_at_a_time(rng, d, field, uniforms):
    # The per-sample loop the block draw replaces: a direction, drawn
    # again while its norm is at most the floor, then its uniforms.
    rows, norms, draws, redraws = [], [], [], 0
    for count in uniforms:
        while True:
            direction = rng.field_gaussians(d, field)
            norm = math.sqrt(fl.frames._squared_norms(direction))
            if norm > fl.gleason._NORM_FLOOR:
                break
            redraws += 1
        rows.append(direction)
        norms.append(norm)
        draws += [rng.uniform() for _ in range(count)]
    return np.array(rows), np.array(norms), draws, redraws


def _fit_uniforms(samples, field):
    return [i % 2 for i in range(samples)]


def _homogeneity_uniforms(samples, field):
    return [3 if field == "C" else 2] * samples


def _prepared(seed, prelude):
    # A generator fresh, partly into its block, or holding a spare.
    rng = SplitMix64(seed)
    if prelude == "read":
        for _ in range(seed % 61 + 1):
            rng.u64()
    elif prelude == "spare":
        rng.gaussians(2 * (seed % 5) + 1)
        assert rng._spare is not None
    return rng


def _same_directions(d, field, uniforms, seed, prelude):
    rng, ref = _prepared(seed, prelude), _prepared(seed, prelude)
    rows, norms, draws = fl.gleason._directions(rng, d, field, uniforms)
    want_rows, want_norms, want_draws, redraws = _directions_one_at_a_time(
        ref, d, field, uniforms)
    assert rows.dtype == want_rows.dtype and rows.shape == want_rows.shape
    assert rows.tobytes() == want_rows.tobytes()
    assert norms.tobytes() == want_norms.tobytes()
    assert np.array(draws).tobytes() == np.array(want_draws).tobytes()
    assert rng.state == ref.state
    assert repr(rng._spare) == repr(ref._spare)
    return redraws


@pytest.mark.parametrize("field", ["R", "C"])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("pattern", [_fit_uniforms, _homogeneity_uniforms])
def test_block_directions_are_the_per_sample_draws(field, d, pattern):
    # An odd d over R carries a spare from sample to sample.
    for samples in (1, 2, 7, 64):
        for seed, prelude in ((samples, "fresh"), (3 * samples, "read"),
                              (5 * samples + 2, "spare")):
            _same_directions(d, field, pattern(samples, field), seed,
                             prelude)


@pytest.mark.parametrize("field", ["R", "C"])
def test_block_directions_longer_than_a_fill(field):
    # 300 samples of 5 draw 3,300 to 3,900 words, past _FILL_MAX.
    words = 300 * (5 * (2 if field == "C" else 1) + 3)
    assert words > fl.rng._FILL_MAX
    for prelude in ("fresh", "read", "spare"):
        _same_directions(5, field, _homogeneity_uniforms(300, field), 11,
                         prelude)


@pytest.mark.parametrize("field", ["R", "C"])
@pytest.mark.parametrize("pattern", [_fit_uniforms, _homogeneity_uniforms])
def test_block_directions_redraw_as_the_per_sample_loop(field, pattern,
                                                        monkeypatch):
    # A raised floor refuses about a fifth to two fifths of d = 1
    # directions, so runs of refusals and refusals after a spare occur.
    monkeypatch.setattr(fl.gleason, "_NORM_FLOOR", 0.5)
    redraws = 0
    for seed, prelude in ((1, "fresh"), (2, "read"), (3, "spare")):
        redraws += _same_directions(1, field, pattern(64, field), seed,
                                    prelude)
    assert redraws > 10
    _same_directions(2, field, pattern(40, field), 4, "spare")


# --- quadratic fitting ------------------------------------------------------


def test_fit_recovers_random_operators():
    for field, seed in (("C", 3), ("C", 4), ("R", 5)):
        a = fl.random_hermitian(3, seed=seed, field=field)
        fit = fl.fit_quadratic(fl.quadratic_gleason(a), samples=200, seed=1)
        assert fit.verdict == "quadratic"
        assert fit.residual <= 1e-9
        assert_allclose(np.asarray(fit.operator), a, atol=1e-10)
        assert_allclose(complex(fit.weight).real, np.trace(a).real, atol=1e-10)


def test_fit_operator_demotes_by_the_relative_rule():
    # A real form at scale 1e6 evaluated over C leaves imaginary parts
    # of 2.9e-11 in the polarized matrix: roundoff at that scale, as
    # the real weight already says, so the operator's imaginary parts
    # are zeroed; it stays complex128, the type the report emits.
    a = 1e6 * fl.random_hermitian(3, seed=1, field="R")
    g = dataclasses.replace(fl.quadratic_gleason(a), field="C")
    fit = fl.fit_quadratic(g, samples=50)
    assert isinstance(fit.weight, float)
    assert fit.operator.dtype == np.complex128
    assert not fit.operator.imag.any()
    assert_allclose(fit.operator, a, rtol=1e-12)
    # a genuinely complex form keeps its imaginary parts
    b = fl.random_hermitian(3, seed=1, field="C")
    assert fl.fit_quadratic(fl.quadratic_gleason(b), samples=50
                            ).operator.dtype == np.complex128


def test_fit_cos2_gives_diag_2_0():
    fit = fl.fit_quadratic(fl.cos_counterexample(2), samples=400, seed=2)
    assert fit.verdict == "quadratic"
    assert_allclose(np.asarray(fit.operator), np.diag([2.0, 0.0]), atol=1e-9)


def test_fit_rejects_higher_cos_and_indicator():
    for g in (fl.cos_counterexample(6), fl.rational_indicator_counterexample()):
        fit = fl.fit_quadratic(g, samples=400, seed=7)
        assert fit.verdict == "not_quadratic"
        assert fit.residual > 0.1


def test_fit_flags_constant_offset():
    g = fl.quadratic_gleason(np.eye(2), const=0.25)
    fit = fl.fit_quadratic(g, samples=200, seed=3)
    assert fit.verdict == "not_quadratic"  # offset is not r^2-homogeneous


def test_fit_takes_no_tolerance():
    # The verdict uses the fixed 1e-9 / 1e-6 thresholds, so a tol
    # argument would be silently ignored; it is refused instead.
    with pytest.raises(TypeError):
        fl.fit_quadratic(fl.cos_counterexample(6), tol=1e-3)


# --- scaling laws -----------------------------------------------------------


def test_homogeneity_of_sphere_extensions():
    for g in (
        fl.quadratic_gleason(fl.random_hermitian(2, seed=2)),
        fl.cos_counterexample(6),
        fl.rational_indicator_counterexample(),
    ):
        report = fl.homogeneity_check(g, samples=100, seed=8)
        assert report.passed, report.max_deviation


def test_homogeneity_fails_for_expnorm():
    report = fl.homogeneity_check(fl.expnorm_gleason(2), samples=100, seed=8)
    assert not report.passed
    assert report.witness is not None


def _all_nan(x):
    return [complex(math.nan)] * len(x)


def _nan_at_odd_rows(x):
    # |x|^2, a quadratic form, except NaN at every other row of a block
    return [complex(math.nan) if i % 2 else complex(np.vdot(r, r))
            for i, r in enumerate(x)]


def test_values_reject_a_non_finite_value():
    g = fl.GleasonFn(dim=2, field="R", kind="probe",
                     fn=lambda x: [0.0, complex(math.inf, 0.0)][:len(x)])
    with pytest.raises(fl.InputError,
                       match=r"^probe function is \(inf\+0j\) at row 1$"):
        g.values(np.zeros((2, 2)))
    assert g(np.zeros(2)) == 0.0


@pytest.mark.parametrize("fn", [_all_nan, _nan_at_odd_rows],
                         ids=["nan", "nan-at-odd-rows"])
def test_fit_rejects_a_non_finite_value(fn):
    # Python's max passed over NaN: both fits read "quadratic" with
    # residual 0.0.
    g = fl.GleasonFn(dim=2, field="R", kind="nan", fn=fn)
    with pytest.raises(fl.InputError, match=r"^nan function is \(nan\+0j\)"):
        fl.fit_quadratic(g, samples=10)


def test_homogeneity_rejects_a_non_finite_value():
    # NaN deviations were never above the worst, so the check passed.
    g = fl.GleasonFn(dim=2, field="R", kind="nan", fn=_all_nan)
    with pytest.raises(fl.InputError,
                       match=r"^nan function is \(nan\+0j\) at row 0$"):
        fl.homogeneity_check(g, samples=10)


# --- zeros of quadratic forms on the circle ---------------------------------


def test_zero_count_closed_cases():
    assert fl.quadratic_zero_count_s1(np.array([[0.0, 0.5], [0.5, 0.0]])) == 4
    assert fl.quadratic_zero_count_s1(np.eye(2)) == 0
    assert fl.quadratic_zero_count_s1(np.diag([1.0, 0.0])) == 2
    assert fl.quadratic_zero_count_s1(np.diag([1.0, -1.0])) == 4
    assert fl.quadratic_zero_count_s1(np.zeros((2, 2))) == math.inf
    with pytest.raises(fl.NotHermitianError):
        fl.quadratic_zero_count_s1(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(fl.NotSquareError):
        fl.quadratic_zero_count_s1(np.eye(3))
    for bad in (np.nan, np.inf):
        with pytest.raises(fl.InputError):
            fl.quadratic_zero_count_s1(np.array([[1.0, 0.0], [0.0, bad]]))
    # Hermitian but not real: the form x^T A x is not real-valued
    with pytest.raises(fl.InputError):
        fl.quadratic_zero_count_s1(np.array([[1.0, 1.0j], [-1.0j, 1.0]]))


def test_zero_count_matches_grid_oracle():
    rng = SplitMix64(61)
    for _ in range(300):
        a, b, c = rng.gaussians(3).tolist()
        mat = np.array([[a, b], [b, c]])
        predicted = fl.quadratic_zero_count_s1(mat)
        assert predicted == grid_zero_count(a, b, c)


# --- degree ladder -----------------------------------------------------------


def test_ladder_increments_equal_value_at_zero():
    a = fl.random_hermitian(2, seed=12)
    g = fl.quadratic_gleason(a, const=0.3)
    report = fl.degree_ladder_experiment(g, 4, 7, trials=20, seed=5)
    assert report.degrees == [4, 5, 6, 7]
    assert all(report.passed)
    assert report.increments_ok
    assert_allclose(report.g_at_zero, 0.3, atol=1e-15)
    assert_allclose(report.increments, [0.3] * 3, atol=1e-9)
    for n, w in zip(report.degrees, report.weights):
        assert_allclose(w, float(np.trace(a).real) + 0.3 * n, atol=1e-9)


def test_ladder_requires_dim_plus_two():
    g = fl.quadratic_gleason(np.eye(3))
    with pytest.raises(fl.BadCardinalityError):
        fl.degree_ladder_experiment(g, 4, 6)
    with pytest.raises(fl.BadCardinalityError):
        fl.degree_ladder_experiment(g, 5, 4)


def test_weight_trace_experiment_sums_to_the_trace():
    report = fl.weight_trace_experiment(3, 5, trials=6, seed=2)
    assert report.passed and report.max_deviation <= 1e-12


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_weight_trace_experiment_runs_in_every_dimension(dim):
    # A 1 x 1 complex draw is real; its trials still sum over their
    # complex frames.
    report = fl.weight_trace_experiment(dim, dim + 1, trials=4, seed=1)
    assert report.passed and report.max_deviation <= 1e-12
    with pytest.raises(fl.InputError, match="need at least one trial"):
        fl.weight_trace_experiment(3, 5, trials=0)


def test_counterexample_battery_needs_the_explicit_witness_for_epsilon():
    # Sampling never hits the swapped points, so only the explicit
    # three-vector frame shows the defect.
    report = fl.counterexample_battery(
        fl.epsilon_1d_counterexample(0.2), trials=5, samples=20, seed=1)
    assert report.onb.passed and report.parseval.passed
    assert report.homogeneity.passed and report.fit.verdict == "quadratic"
    witness = report.explicit_degree3
    assert_allclose(witness["sum"], 2.2, atol=1e-12)
    # the plain float sum of the function at the three points
    g = fl.epsilon_1d_counterexample(0.2)
    plain = sum(float(g(np.array([t]))) for t in witness["vectors"])
    assert type(witness["sum"]) is float and witness["sum"] == plain
    assert witness["degree2_weight"] == 1.0
    assert report.is_counterexample

    quad = fl.counterexample_battery(
        fl.quadratic_gleason(np.diag([1.0, 2.0])), trials=5, samples=20)
    assert quad.explicit_degree3 is None and not quad.is_counterexample
    assert quad.parseval_n == 3
