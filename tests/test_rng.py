import hashlib
import math
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import framelab as fl
from framelab import SplitMix64
from subprocess_env import subprocess_env


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
        feed(rng.gaussians(1)[0])
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
        flat = scalar.gaussians(2 * int(np.prod(shape)))
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
        assert SplitMix64(seed).gaussians(2)[0] == 0.0
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
    return fl.gleason._directions(SplitMix64(seed), d, field, [0, 0, 0])[0]


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


def test_below_refuses_a_bound_one_word_cannot_reach():
    # One word modulo n is below 2**64, so [0, n) for a larger n is not
    # covered; such a bound is refused before a word is drawn.
    rng = SplitMix64(0)
    with pytest.raises(fl.InputError, match=re.escape(
            f"below() needs a bound <= 2**64, got {2**65}")):
        rng.below(2**65)
    assert rng.state == 0
    assert rng.below(2**64) == SplitMix64(0).u64()


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


# --- the hash rule in blocks -------------------------------------------------


def _scalar_box_muller(words, out):
    # The scalar Box-Muller loop the array transform replaced, as it
    # was written: each pair of words appends two normals to out.  The
    # oracle of the transform's bits.
    pairs = iter(words)
    append = out.append
    for w1, w2 in zip(pairs, pairs):
        # Shift into (0, 1] so the log never sees zero.
        u1 = ((w1 >> 11) + 1) * 2.0 ** -53
        u2 = (w2 >> 11) * 2.0 ** -53
        radius = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        append(radius * math.cos(theta))
        append(radius * math.sin(theta))


class _ReferenceSplitMix64:
    """The word-by-word generator the block fills replaced: one
    SplitMix64 step per word in Python ints, and the scalar Box-Muller
    loop.  The oracle of the block fills' and the transform's bits."""

    _MASK = (1 << 64) - 1
    _GAMMA = 0x9E3779B97F4A7C15

    def __init__(self, seed):
        self.state = seed & self._MASK
        self._spare = None

    def u64(self):
        mask = self._MASK
        self.state = (self.state + self._GAMMA) & mask
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return (z ^ (z >> 31)) & mask

    def uniform(self):
        return (self.u64() >> 11) * 2.0 ** -53

    def below(self, n):
        return self.u64() % n

    def _normals(self, count):
        out = []
        if self._spare is not None and count > 0:
            out.append(self._spare)
            self._spare = None
            count -= 1
        words = [self.u64() for _ in range(count + count % 2)]
        _scalar_box_muller(words, out)
        if count % 2:
            self._spare = out.pop()
        return out

    def gaussians(self, shape):
        out = np.empty(shape)
        out.ravel()[:] = self._normals(out.size)
        return out

    def complex_gaussians(self, shape):
        out = np.empty(shape, np.complex128)
        flat = out.ravel().view(np.float64)
        flat[:] = self._normals(flat.size)
        parts = flat.reshape(-1, 2)
        parts += parts[:, ::-1] * np.array([0.0, -0.0])
        parts /= math.sqrt(2.0)
        return out


def _same_draw(rng, ref, method, *args):
    # One draw from both generators: equal results by bits and equal
    # state and spare afterwards.
    got = getattr(rng, method)(*args)
    want = getattr(ref, method)(*args)
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and got.shape == want.shape
        got, want = got.tobytes(), want.tobytes()
    assert type(got) is type(want) and got == want, (method, args)
    assert rng.state == ref.state, (method, args)
    assert repr(rng._spare) == repr(ref._spare), (method, args)


GAMMA = 0x9E3779B97F4A7C15
# 0 and 2**64 - 1, states that wrap past 2**64 at the first, third and
# 64th word, and two plain seeds.
REFERENCE_SEEDS = (0, 2**64 - 1, -GAMMA, -3 * GAMMA, -64 * GAMMA, 1, 7919)


@pytest.mark.parametrize("seed", REFERENCE_SEEDS)
def test_block_fills_give_the_word_by_word_stream(seed):
    rng, ref = SplitMix64(seed), _ReferenceSplitMix64(seed)
    assert rng.state == ref.state
    script = [
        ("u64",), ("gaussians", 1), ("gaussians", 3), ("uniform",),
        ("below", 7), ("complex_gaussians", 1), ("gaussians", 0),
        ("gaussians", 1), ("gaussians", (2, 3)), ("complex_gaussians", (3, 1)),
        ("below", 2**64), ("gaussians", 1), ("gaussians", 1), ("u64",),
    ]
    for _ in range(3):
        for step in script:
            _same_draw(rng, ref, *step)
    # draws of 63, 64, 65, 1025 and 2049 words across fill boundaries,
    # each run of words starting off a boundary and after an odd count;
    # 2049 normals after a spare is held span two reads of 1024 words
    for count in (63, 64, 65, 1025, 2049):
        for _ in range(count):
            _same_draw(rng, ref, "u64")
        _same_draw(rng, ref, "gaussians", count)
        _same_draw(rng, ref, "gaussians", 1)
        _same_draw(rng, ref, "complex_gaussians", count)
        _same_draw(rng, ref, "gaussians", count - 1)
        for _ in range(count % 7):
            _same_draw(rng, ref, "uniform")


def test_stacked_fills_over_partly_read_generators_keep_each_stream():
    # Generators at different depths into their blocks, with and
    # without a spare, filled together by counts below, at and above
    # what each holds; every later draw matches its reference.
    fill = fl.rng._fill
    for count in (1, 2, 5, 63, 64, 65, 200, 1024, 1025, 5000):
        rngs = [SplitMix64(s) for s in REFERENCE_SEEDS]
        refs = [_ReferenceSplitMix64(s) for s in REFERENCE_SEEDS]
        for depth, (rng, ref) in enumerate(zip(rngs, refs)):
            for _ in range(depth * 9):
                _same_draw(rng, ref, "u64")
            if depth % 2:
                _same_draw(rng, ref, "gaussians", 2 * depth + 1)
        fill(rngs[::2], count)
        fill(rngs, count)
        for rng in rngs:
            assert len(rng._words) - rng._read >= min(count, 1024)
        for rng, ref in zip(rngs, refs):
            _same_draw(rng, ref, "gaussians", 5)
            _same_draw(rng, ref, "u64")
            _same_draw(rng, ref, "complex_gaussians", 70)
            _same_draw(rng, ref, "below", 3)


@pytest.mark.parametrize("shape, field", [
    ((1, 1), "R"), ((2, 3), "R"), ((2, 3), "C"), ((3, 200), "C"),
])
def test_field_blocks_draw_each_generators_own_block(shape, field):
    # Block t of a stack's run is generator t's own draw, over more
    # generators than one pass of frames takes, some partly into their
    # blocks and some holding a spare; each then holds no words, and its
    # later draws continue its stream.
    count = 2 * fl.frames._STACK_PASS + 3
    seeds = [REFERENCE_SEEDS[t % len(REFERENCE_SEEDS)] + t
             for t in range(count)]
    rngs = [SplitMix64(s) for s in seeds]
    refs = [_ReferenceSplitMix64(s) for s in seeds]
    for t, (rng, ref) in enumerate(zip(rngs, refs)):
        for _ in range(t % 5):
            _same_draw(rng, ref, "u64")
        if t % 3 == 0:
            _same_draw(rng, ref, "gaussians", 3)
    size = int(np.prod(shape))
    stack = fl.rng._field_runs(rngs, [size] * count, field).reshape(
        (count,) + shape)
    draw = "gaussians" if field == "R" else "complex_gaussians"
    for block, rng, ref in zip(stack, rngs, refs):
        assert block.tobytes() == getattr(ref, draw)(shape).tobytes()
        assert rng._words.size == 0
        assert rng.state == ref.state
        assert repr(rng._spare) == repr(ref._spare)
        _same_draw(rng, ref, "gaussians", 5)
        _same_draw(rng, ref, "u64")


# --- the transform in whole-array passes ------------------------------------

# Counts of normals around the fill bounds of 64 and 1024 words.
DRAW_COUNTS = (0, 1, 2, 3, 63, 64, 65, 1023, 1024, 1025, 2049)
ORACLE_SEEDS = REFERENCE_SEEDS + ZERO_RADIUS_SEEDS
STARTS = ("fresh", "spare", "partly-read")


def _started(seed, start):
    # A generator and its reference, fresh, holding a spare, or partly
    # into a block without one.
    rng, ref = SplitMix64(seed), _ReferenceSplitMix64(seed)
    if start == "spare":
        _same_draw(rng, ref, "gaussians", 1)
    elif start == "partly-read":
        for _ in range(5):
            _same_draw(rng, ref, "u64")
    return rng, ref


def test_the_transform_matches_the_scalar_loop():
    # Pairs of random words, and words at the ends of the uniforms'
    # range: u1 = 2**-53 and 1, u2 = 0 and 1 - 2**-53.
    words = np.random.default_rng(3).integers(
        0, 2**64 - 1, 20_000, dtype=np.uint64, endpoint=True)
    ends = np.array([0, 2**11 - 1, 2**11, 2**64 - 1, 2**64 - 2**11, 2**63],
                    dtype=np.uint64)
    words = np.concatenate([words, np.repeat(ends, 2), np.tile(ends, 2)])
    want: list[float] = []
    _scalar_box_muller(words.tolist(), want)
    got = fl.rng._box_muller(words)
    assert got.tobytes() == np.array(want).tobytes()
    assert fl.rng._box_muller(words[:0]).shape == (0,)


@pytest.mark.parametrize("start", STARTS)
@pytest.mark.parametrize("method", ["gaussians", "complex_gaussians"])
def test_draws_match_the_scalar_transform(method, start):
    for seed in ORACLE_SEEDS:
        for count in DRAW_COUNTS:
            rng, ref = _started(seed, start)
            _same_draw(rng, ref, method, count)
            _same_draw(rng, ref, method, 3)


@pytest.mark.parametrize("field", ["R", "C"])
def test_stacked_draws_match_the_scalar_transform(field):
    # Every seed from every start in one stack, at each count; then one
    # run of a different count per generator.
    draw = "gaussians" if field == "R" else "complex_gaussians"
    for count in DRAW_COUNTS:
        rngs, refs = zip(*[_started(seed, start) for seed in ORACLE_SEEDS
                           for start in STARTS])
        stack = fl.rng._field_runs(list(rngs), [count] * len(rngs),
                                   field).reshape(len(rngs), count)
        for block, rng, ref in zip(stack, rngs, refs):
            assert block.tobytes() == getattr(ref, draw)(count).tobytes()
            assert rng.state == ref.state
            assert repr(rng._spare) == repr(ref._spare)
            _same_draw(rng, ref, draw, 3)
    rngs, refs = zip(*[_started(seed, start) for seed in ORACLE_SEEDS
                       for start in STARTS])
    counts = [DRAW_COUNTS[t % len(DRAW_COUNTS)] for t in range(len(rngs))]
    runs = fl.rng._field_runs(list(rngs), counts, field)
    want = np.concatenate([getattr(ref, draw)(count)
                           for ref, count in zip(refs, counts)])
    assert runs.tobytes() == want.tobytes()
    for rng, ref in zip(rngs, refs):
        assert rng._words.size == 0
        _same_draw(rng, ref, draw, 3)


def _steps_one_at_a_time(ref, width, uniforms, refused):
    # The steps of a planned run drawn one by one: a step's normals,
    # drawn again when the count of directions drawn so far is in
    # refused, then its uniforms.
    normals, draws, drawn = [], [], 0
    for count in uniforms:
        while True:
            step = ref._normals(width)
            drawn += 1
            if drawn - 1 not in refused:
                break
        normals += step
        draws += [ref.uniform() for _ in range(count)]
    return normals, draws


# (uniforms, refused directions) of planned runs.
RUN_PLANS = [
    ([], set()), ([0], set()), ([1, 0, 2], set()),
    ([i % 4 for i in range(65)], set()), ([2] * 40, {0, 3, 4, 39}),
    ([0, 1] * 20, {1, 40}),
]


@pytest.mark.parametrize("start", STARTS)
def test_planned_runs_match_the_scalar_transform(start):
    for width in (1, 2, 3, 6, 63, 64, 65):
        for uniforms, refused in RUN_PLANS:
            for seed in (1, 7919) + ZERO_RADIUS_SEEDS:
                rng, ref = _started(seed, start)
                got, seen = [], 0

                def keep(normals):
                    nonlocal seen
                    block = normals.reshape(-1, width)
                    kept = len(block)
                    hit = sorted(r - seen for r in refused
                                 if 0 <= r - seen < kept)
                    kept = hit[0] if hit else kept
                    got.append(block[:kept].copy())
                    seen += kept + (kept < len(block))
                    return kept

                draws = rng._run(width, uniforms, keep)
                normals, want = _steps_one_at_a_time(
                    ref, width, uniforms, refused)
                got_normals = np.concatenate(got) if got else np.empty(0)
                assert got_normals.tobytes() == np.array(normals).tobytes()
                assert np.array(draws).tobytes() == np.array(want).tobytes()
                assert rng.state == ref.state
                assert repr(rng._spare) == repr(ref._spare)
                _same_draw(rng, ref, "gaussians", 3)


def test_numpys_cos_sin_and_sqrt_have_libms_bits():
    # The transform's premise: at the angles 2 pi u2 and the squared
    # radii -2 log u1 of 200,000 draws, and at the ends of their range,
    # NumPy's float64 cos, sin and sqrt give math's bits, into a
    # contiguous array and into every other entry of one, as the
    # transform writes them.
    words = np.random.default_rng(7).integers(
        0, 2**64 - 1, 400_000, dtype=np.uint64, endpoint=True)
    u = (words >> 11) * 2.0 ** -53
    ulps = np.arange(1000, dtype=np.float64)
    u2 = np.concatenate([u[1::2], ulps * 2.0 ** -53, 1.0 - ulps * 2.0 ** -53])
    u1 = np.concatenate([u[0::2] + 2.0 ** -53, (ulps + 1) * 2.0 ** -53,
                         1.0 - ulps * 2.0 ** -53])
    theta = 2.0 * math.pi * u2
    squares = -2.0 * np.array([math.log(x) for x in u1.tolist()])
    assert len(theta) >= 200_000 and len(squares) >= 200_000
    for name, x in [("cos", theta), ("sin", theta), ("sqrt", squares)]:
        want = np.array([getattr(math, name)(v) for v in x.tolist()])
        every_other = np.empty((len(x), 2))
        getattr(np, name)(x, out=every_other[:, 0])
        assert getattr(np, name)(x).tobytes() == want.tobytes(), name
        assert every_other[:, 0].tobytes() == want.tobytes(), name


def test_a_tall_stack_holds_one_pass_of_words():
    # The traced peak of drawing and keeping 2 x 2 complex blocks grows
    # by at most 512 bytes a generator, 8 times a block's 64: the blocks
    # kept and a pass's temporaries, and no block of words beside them.
    # Keeping every generator's words after its draw grew by 3,480 bytes
    # a generator.
    def peak(count):
        draws = [(SplitMix64(s), 2) for s in range(count)]
        tracemalloc.start()
        try:
            blocks = [b for _, b in fl.frames._random_rows(draws, 2, "C")]
            assert len(blocks) == count
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(4096) - peak(256) <= 512 * 3840


def test_a_long_frame_draw_holds_its_run_and_no_stack_copy():
    # One frame of 250,000 vectors: its 8 MB block is drawn as the
    # frame pass's run and orthonormalized in that run, in rounds of
    # words.  The figure is this draw's peak when the block was copied
    # out of the run into a stack first, under tracemalloc, CPython
    # 3.11, NumPy 2.4; the run alone peaks at 16,503,736 bytes.
    tracemalloc.start()
    try:
        fl.random_parseval(2, 250_000, seed=1, field="C")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 24_135_868


def test_a_long_draw_holds_one_bounded_block_of_words():
    # A fill hashes at most 1024 words, and a longer draw refills as it
    # goes, so it holds no list of every word beside its normals.  The
    # figure is this draw's peak at the word-by-word parent, under
    # tracemalloc, CPython 3.11, NumPy 2.4: the list of 10**6 floats
    # and the output array.
    rng = SplitMix64(1)
    tracemalloc.start()
    try:
        rng.gaussians(10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 40_447_108
    assert len(rng._words) <= 1024


@pytest.mark.parametrize("draw, shape", [
    (lambda: fl.random_parseval(2, 10**12), (2, 10**12)),
], ids=["random_parseval"])
def test_a_draw_too_large_names_its_shape_before_any_fill(draw, shape):
    with pytest.raises(fl.InputError,
                       match=re.escape(f"a draw of shape {shape} is too large")):
        draw()



@pytest.mark.parametrize("stack", [1, 4])
def test_a_long_stacked_block_holds_one_round_of_words(stack):
    # A stack draws its runs in rounds of at most 1024 normals a
    # generator, so a long block holds the stack's flat run of normals
    # and one round of words and temporaries.  Sending a pass's whole
    # run through the transform at once peaked at 72.2 MB, and copying
    # the run into a stack of blocks at 16.1 MB, against this draw's
    # 8.1 to 8.3 MB (tracemalloc, CPython 3.11, NumPy 2.4).
    rngs = [SplitMix64(s) for s in range(stack)]
    tracemalloc.start()
    try:
        out = fl.rng._field_runs(rngs, [10**6 // stack] * stack, "R")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * out.nbytes + 2**20


_DIGEST_SCRIPT = """
import hashlib
import numpy as np
from numpy._core._multiarray_umath import __cpu_features__
from framelab import SplitMix64
from framelab.rng import _field_runs, _fill
h = hashlib.sha256()
rngs = [SplitMix64(s) for s in (0, 1, 7919, 2**64 - 1)]
for rng in rngs[::2]:
    rng.gaussians(9)
_fill(rngs, 300)
h.update(_field_runs(rngs[1:], [15] * 3, "C").tobytes())
stack = [SplitMix64(s) for s in range(64)]
for rng in stack[::3]:
    rng.gaussians(1)
h.update(_field_runs(stack, [28] * 64, "C").tobytes())
h.update(_field_runs(stack, [15] * 64, "R").tobytes())
h.update(_field_runs(stack[:5], [1200] * 5, "C").tobytes())
run, normals = SplitMix64(5), []
draws = run._run(3, [i % 3 for i in range(100)],
                 lambda block: normals.append(block.copy()) or 100)
h.update(np.concatenate(normals).tobytes() + repr(draws).encode())
for rng in rngs:
    h.update(str([rng.u64() for _ in range(70)]).encode())
    for shape in (1, 7, 64, 1025, (3, 5)):
        h.update(rng.gaussians(shape).tobytes())
        h.update(rng.complex_gaussians(shape).tobytes())
    h.update(f"{rng.uniform()!r}{rng.below(11)}{rng.state}".encode())
print(h.hexdigest())
print(" ".join(sorted(f for f, on in __cpu_features__.items() if on)))
"""

SIMD_FEATURES = ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR")
# Each switch of ROADMAP items 11 and 5, and the host features it needs
# to take effect.
SWITCHES = {
    "simd": ({"NPY_DISABLE_CPU_FEATURES": " ".join(SIMD_FEATURES)},
             SIMD_FEATURES),
    "blas-kernel": ({"OPENBLAS_CORETYPE": "Sandybridge"}, ("AVX",)),
}


def _run_digest(env):
    # The digest, the CPU features NumPy enabled and OpenBLAS's report of
    # its core, from a fresh interpreter under env.
    full = subprocess_env({**env, "OPENBLAS_VERBOSE": "2"})
    done = subprocess.run([sys.executable, "-c", _DIGEST_SCRIPT], env=full,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    digest, features = done.stdout.splitlines()
    return digest, set(features.split()), done.stderr


@pytest.mark.parametrize("switch", sorted(SWITCHES))
def test_the_draws_keep_their_bits_under_each_kernel_switch(switch):
    # The words are integer ufuncs, which do not round, and the
    # Box-Muller step takes libm's log and NumPy's float64 sqrt, cos and
    # sin, which have libm's bits at every SIMD level, so no SIMD level
    # or BLAS kernel moves a bit: rng is a control group of the byte
    # sweep's switches.  The script draws a 64-generator stacked pass,
    # a stack of runs longer than one round and a planned run, so the
    # array transform runs under each switch.
    env, needs = SWITCHES[switch]
    from numpy._core._multiarray_umath import __cpu_features__
    missing = [f for f in needs if not __cpu_features__.get(f)]
    if missing:
        pytest.skip(f"this host lacks {', '.join(missing)}")
    default, _, default_report = _run_digest({})
    if switch == "blas-kernel" and "Core:" not in default_report:
        # Only OpenBLAS reads the switch and reports its core.
        pytest.skip("NumPy's BLAS reports no core, so the switch "
                    "cannot be seen to take effect")
    digest, features, report = _run_digest(env)
    # the switch took effect
    if switch == "simd":
        assert not features & set(SIMD_FEATURES)
    else:
        assert "Core: Sandybridge" in report
    assert digest == default
