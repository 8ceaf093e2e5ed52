import dataclasses
import math

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
        a, b, c = (rng.gaussian() for _ in range(3))
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
