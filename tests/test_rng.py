import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

import framelab as fl
from framelab import SplitMix64


def _draw_script_digest(seed):
    """SHA-256 of a fixed mix of bulk and scalar draws, including the
    generator's state and cached Box-Muller spare after every step."""
    rng = SplitMix64(seed)
    h = hashlib.sha256()

    def feed(a):
        a = np.asarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
        h.update(f"{rng.state}:{rng._spare!r};".encode())

    for shape in (0, 1, 2, 3, 7, 30, (4, 4)):
        feed(rng.gaussians(shape))
        feed(rng.gaussian())
        feed(rng.complex_gaussians(shape))
        feed(np.uint64(rng.u64()))
        feed(rng.complex_gaussians(shape))
        feed(rng.uniform())
        feed(rng.gaussians(shape))
    return h.hexdigest()


def test_draw_script_golden():
    # Any change to the stream, the Box-Muller transform or the spare
    # rule shows here.
    assert _draw_script_digest(7) == (
        "971c03b7cd802b4c951df407bf36d40316fb1e9ffebf7c74c9159f9807913de8")



# Seeds whose first Box-Muller pair has u1 exactly 1, so the radius is
# -0.0 and both parts of the first complex normal are signed zeros.
ZERO_RADIUS_SEEDS = (0x31628AF67B2131AB, 0x71A00BA151AEADC2)


@pytest.mark.parametrize("shape", [0, (4, 0), 1, 7, (5, 3)])
def test_complex_gaussians_match_python_complex_division(shape):
    root2 = math.sqrt(2.0)
    for seed in list(range(200)) + list(ZERO_RADIUS_SEEDS):
        bulk = SplitMix64(seed)
        scalar = SplitMix64(seed)
        z = bulk.complex_gaussians(shape)
        flat = scalar._normals(2 * int(np.prod(shape)))
        expected = np.array(
            [complex(re, im) / root2 for re, im in zip(flat[::2], flat[1::2])],
            dtype=np.complex128,
        ).reshape(shape)
        assert z.dtype == np.complex128 and z.shape == expected.shape
        assert z.tobytes() == expected.tobytes(), seed
        assert (bulk.state, bulk._spare) == (scalar.state, scalar._spare)


def test_zero_radius_seeds_reach_signed_zeros():
    # Guards the seeds above: Python's division turns the pair
    # (-0.0, 0.0) into (0.0, 0.0) and (-0.0, -0.0) into (-0.0, 0.0).
    signs = []
    for seed in ZERO_RADIUS_SEEDS:
        assert SplitMix64(seed)._normals(2)[0] == 0.0
        z = SplitMix64(seed).complex_gaussians(1)[0]
        signs.append((math.copysign(1.0, z.real), math.copysign(1.0, z.imag)))
    assert signs == [(1.0, 1.0), (-1.0, 1.0)]


# SHA-256 prefixes of each site that draws Gaussians by field, over
# fields R and C, d in 1, 2, 3, 5 and five seeds; pinned while each
# site still chose gaussians or complex_gaussians itself, and
# random_parseval re-pinned when it became a Gram-Schmidt draw.
FIELD_DRAW_DIGESTS = {
    "random_onb": "b82ff2838b8f1249f366f8af17b3a9d2",
    "random_parseval": "23c7bb54a97829c756392063cbfe142c",
    "_direction": "77b2d8dc8d7aa4a3637c993c54f40b22",
    "random_hermitian": "8868d5c8daafad4849897be4f2f6b0b5",
    "random_density": "55f42adfbeb20b1390b8fa4da27cc6f9",
}


def _three_directions(d, seed, field):
    rng = SplitMix64(seed)
    return np.array(
        [fl.gleason._direction(rng, d, field)[0] for _ in range(3)])


FIELD_DRAW_SITES = {
    "random_onb": lambda d, s, f: fl.random_onb(d, seed=s, field=f).vectors,
    "random_parseval": lambda d, s, f: fl.random_parseval(
        d, d + 2, seed=s, field=f).vectors,
    "_direction": _three_directions,
    "random_hermitian": lambda d, s, f: fl.random_hermitian(
        d, seed=s, field=f),
    "random_density": lambda d, s, f: fl.random_density(d, seed=s, field=f),
}


@pytest.mark.parametrize("site", sorted(FIELD_DRAW_DIGESTS))
def test_field_draw_bits_are_pinned(site):
    h = hashlib.sha256()
    for field in ("R", "C"):
        for d in (1, 2, 3, 5):
            for seed in (0, 1, 2, 7919, 2**64 - 1):
                v = FIELD_DRAW_SITES[site](d, seed, field)
                h.update(f"{v.dtype.str}{v.shape}".encode())
                h.update(v.tobytes())
    assert h.hexdigest()[:32] == FIELD_DRAW_DIGESTS[site]


@pytest.mark.parametrize("draw", [
    lambda: SplitMix64(0).field_gaussians(2, "X"),
    lambda: fl.random_hermitian(2, field="X"),
    lambda: fl.random_density(2, field="X"),
    lambda: fl.random_onb(2, field="c"),
    lambda: fl.random_parseval(2, 3, field="c"),
], ids=["method", "random_hermitian", "random_density", "random_onb",
        "random_parseval"])
def test_field_draws_reject_an_unknown_field(draw):
    # random_hermitian and random_density once drew real Gaussians for
    # any field other than "C".
    with pytest.raises(fl.InputError, match="^field must be 'R' or 'C'"):
        draw()


# --- the integer rule ---------------------------------------------------------


@pytest.mark.parametrize("x, expected", [
    (5, 5), (-3, -3), (np.int64(5), 5), (np.uint64(2**64 - 1), 2**64 - 1),
    (np.int8(-3), -3), (5.0, 5), (-0.0, 0), (np.float32(2.0), 2),
    (2.0**70, 2**70),
])
def test_integer_rule_returns_a_python_int(x, expected):
    n = fl.rng._integer(x, "count")
    assert type(n) is int and n == expected


@pytest.mark.parametrize("x", [
    True, False, np.bool_(True), 2.5, np.float64(0.5), math.nan, math.inf,
    -math.inf, "3", None, 1 + 0j, [1],
], ids=repr)
def test_integer_rule_rejects_what_is_no_integer(x):
    with pytest.raises(fl.InputError, match="^count must be an integer, got "):
        fl.rng._integer(x, "count", 0)


def test_integer_rule_floor_is_an_input_error():
    rule = fl.rng._integer
    assert rule(0, "count", 0) == 0 and rule(1.0, "count", 1) == 1
    with pytest.raises(fl.InputError, match="^dimension must be at least 1$"):
        rule(0, "dimension", 1)
    with pytest.raises(fl.InputError, match="^no zeros$"):
        rule(np.int64(-1), "zeros", 0, "no zeros")


# --- the number rule ----------------------------------------------------------


@pytest.mark.parametrize("x, expected", [
    (0.5, 0.5), (-0.0, -0.0), (3, 3.0), (np.float32(0.5), 0.5),
    (np.float64(1e-300), 1e-300), (np.int64(-2), -2.0), (np.uint8(7), 7.0),
    (Fraction(1, 8), 0.125), (2**70, 2.0**70),
])
def test_number_rule_returns_a_float(x, expected):
    y = fl.rng._finite(x, "constant")
    assert type(y) is float and y == expected
    assert math.copysign(1.0, y) == math.copysign(1.0, expected)


@pytest.mark.parametrize("x", [
    True, False, np.bool_(True), "0.5", b"1", None, 1 + 0j, np.complex128(1),
    [1.0], np.array([1.0]),
], ids=repr)
def test_number_rule_rejects_what_is_no_real_number(x):
    with pytest.raises(fl.InputError, match="^constant must be a number, got "):
        fl.rng._finite(x, "constant")


@pytest.mark.parametrize("x", [
    math.nan, math.inf, -math.inf, np.float32("inf"), 10**400,
    Fraction(10**400),
], ids=repr)
def test_number_rule_rejects_what_is_not_finite(x):
    with pytest.raises(fl.InputError, match="^constant must be finite, got "):
        fl.rng._finite(x, "constant")
    with pytest.raises(fl.InputError, match="^no such number$"):
        fl.rng._finite(x, "constant", "no such number")


# Seeds at the edges of int64 and uint64; each is also tried as an
# np.int64 or np.uint64 where that holds it and, if exact, as a float.
EDGE_SEEDS = (0, 1, 5, 2**53, 2**63 - 1, 2**63, 2**64 - 1, -1, -5,
              -(2**63))


def _stream(seed):
    rng = SplitMix64(seed)
    words = [rng.u64() for _ in range(3)]
    return words, rng.gaussians(3).tobytes(), rng.complex_gaussians(2).tobytes()


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_numpy_and_float_seeds_give_the_int_stream(seed):
    expected = _stream(seed)
    alike = [kind(seed) for kind in (np.int64, np.uint64)
             if np.iinfo(kind).min <= seed <= np.iinfo(kind).max]
    if float(seed) == seed:
        alike.append(float(seed))
    assert alike  # every edge seed has some other form
    for other in alike:
        assert _stream(other) == expected, repr(other)
    # a seed is kept to its low 64 bits
    assert _stream(seed + 2**64) == expected


# Each pair runs with a NumPy integer and with the Python int of equal
# value; the NumPy call raised OverflowError from `seed & mask` or
# `u64() % n` on an int64.
NUMPY_INTEGER_CALLS = {
    "random_onb-seed": lambda i: fl.random_onb(2, seed=i(5)).vectors,
    "ladder-seed": lambda i: fl.degree_ladder_experiment(
        fl.quadratic_gleason(np.diag([1.0, 2.0])), 4, 5, trials=2,
        seed=i(1)),
    "below-bound": lambda i: SplitMix64(1).below(i(3)),
    "born-dim": lambda i: fl.born_experiment(i(2), trials=3),
}


@pytest.mark.parametrize("name", sorted(NUMPY_INTEGER_CALLS))
def test_numpy_integers_are_the_ints_they_equal(name):
    call = NUMPY_INTEGER_CALLS[name]
    assert (fl.canonical_json(call(np.int64))
            == fl.canonical_json(call(int)))


def test_below_keeps_its_bound_check():
    with pytest.raises(fl.InputError, match="^below\\(\\) needs a positive"):
        SplitMix64(1).below(0)
    with pytest.raises(fl.InputError, match="^bound must be an integer"):
        SplitMix64(1).below(2.5)


# Calls that once truncated a non-integral value, or raised a bare
# TypeError or ValueError, and now apply the integer rule.
NOT_INTEGER_CALLS = {
    "verify_onb-trials-2.5": lambda: fl.verify_onb_gleason(
        fl.cos_counterexample(6), trials=2.5),
    "verify_onb-trials-x": lambda: fl.verify_onb_gleason(
        fl.cos_counterexample(6), trials="x"),
    "verify_parseval-n-4.9": lambda: fl.verify_parseval_gleason(
        fl.cos_counterexample(6), 4.9, trials=2),
    "cos_counterexample-6.5": lambda: fl.cos_counterexample(6.5),
    "expnorm-dim-2.5": lambda: fl.expnorm_gleason(2.5),
    "harmonic-selector-1.5": lambda: fl.harmonic_frame(
        2, 6, selector=(1.5, 3)),
    "grouped-partition-0.5": lambda: fl.povm_from_frame_grouped(
        fl.with_zeros(fl.standard_onb(2), 2), [[0.5, 1], [2, 3]]),
    "povm-partition-0.7": lambda: fl.Povm(
        np.eye(1)[None], partition=[[0.7]]),
    "weight_trace-2.5": lambda: fl.weight_trace_experiment(2.5, 4.5),
    "random_onb-dim-none": lambda: fl.random_onb(None),
    "random_onb-seed-none": lambda: fl.random_onb(2, seed=None),
    "standard_onb-true": lambda: fl.standard_onb(True),
    "quadratic_phase-7.5": lambda: fl.quadratic_phase(7.5),
    "bjorck-string": lambda: fl.bjorck("7"),
    "check_measure-n_family-4.5": lambda: fl.check_generalized_measure(
        lambda e: 0.5, 2, 4.5),
}


@pytest.mark.parametrize("name", sorted(NOT_INTEGER_CALLS))
def test_entry_points_apply_the_integer_rule(name):
    with pytest.raises(fl.InputError, match="must be an integer, got "):
        NOT_INTEGER_CALLS[name]()


def test_integral_floats_are_the_integers_they_equal():
    report = fl.weight_trace_experiment(2.0, 4.0, trials=2, seed=3)
    assert (type(report.dim), type(report.n)) == (int, int)
    assert report == fl.weight_trace_experiment(2, 4, trials=2, seed=3)
    g = fl.cos_counterexample(6.0)
    assert g.params == {"n": 6} and type(g.params["n"]) is int
    assert (fl.harmonic_frame(2.0, 6.0, selector=(1.0, 3.0)).vectors.tobytes()
            == fl.harmonic_frame(2, 6, selector=(1, 3)).vectors.tobytes())
    assert fl.Povm(np.eye(1)[None], partition=[[0.0]]).partition == [[0]]


# --- the draw shape -----------------------------------------------------------


@pytest.mark.parametrize("shape, message", [
    (2.5, "shape entry must be an integer, got 2.5"),
    ((2, 2.5), "shape entry must be an integer, got 2.5"),
    ((2, True), "shape entry must be an integer, got True"),
    (-1, "shape entry must be at least 0"),
    ((2, -1), "shape entry must be at least 0"),
])
@pytest.mark.parametrize("method", ["gaussians", "complex_gaussians"])
def test_draw_shapes_follow_the_integer_rule(method, shape, message):
    # Once a bare TypeError, an IndexError from the Box-Muller loop, or
    # an empty array for a negative count.
    with pytest.raises(fl.InputError, match=f"^{message}$"):
        getattr(SplitMix64(1), method)(shape)


@pytest.mark.parametrize("method", ["gaussians", "complex_gaussians"])
def test_integral_float_shapes_draw_the_int_shape(method):
    for shape, same in [(2.0, 2), ((2, 2.0), (2, 2)), ([3, 1], (3, 1)),
                        (np.int64(3), 3), ((0, 4), (0, 4))]:
        a = getattr(SplitMix64(5), method)(shape)
        b = getattr(SplitMix64(5), method)(same)
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


# Sizes whose element count overflows the index type, so NumPy refuses
# them without allocating.  Each once grew a list of normals until the
# process was killed.
TOO_LARGE_DRAWS = {
    "gaussians": lambda: SplitMix64(1).gaussians((10**12, 10**12)),
    "complex_gaussians": lambda: SplitMix64(1).complex_gaussians(
        (10**12, 10**12)),
    "random_onb": lambda: fl.random_onb(10**12),
    "random_parseval": lambda: fl.random_parseval(10**12, 10**12, field="R"),
    "random_hermitian": lambda: fl.random_hermitian(10**12),
    "random_density": lambda: fl.random_density(10**12),
}


@pytest.mark.parametrize("name", sorted(TOO_LARGE_DRAWS))
def test_draws_refuse_a_size_numpy_cannot_hold_before_drawing(name):
    with pytest.raises(fl.InputError, match="too large$"):
        TOO_LARGE_DRAWS[name]()
