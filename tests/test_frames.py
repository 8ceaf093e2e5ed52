import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import framelab as fl
from framelab import Frame, SplitMix64
from framelab.serialize import canonical_json, frame_from_json, frame_to_json


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


@pytest.mark.parametrize("field", ["R", "C"])
def test_random_parseval_of_a_square_size_is_random_onb_transposed(field):
    # One orthonormalization rule draws both: the square Parseval draw
    # is the transposed basis, bit for bit.
    for d in range(1, 9):
        for seed in (0, 1, 7919):
            par = fl.random_parseval(d, d, seed=seed, field=field).vectors
            onb = fl.random_onb(d, seed=seed, field=field).vectors
            assert np.array_equal(par, onb.T)


@pytest.mark.parametrize("field", ["R", "C"])
@pytest.mark.parametrize("d", [4, 8, 13, 20])
def test_random_parseval_is_parseval_to_roundoff(field, d):
    # numpy.linalg is the oracle.  Tightening Gaussians through the
    # Jacobi inverse square root read up to 1.1e-9 here (R, d = n = 13).
    worst = 0.0
    for n in (d, d + 2, 2 * d + 7):
        for seed in range(30):
            x = fl.random_parseval(d, n, seed=seed, field=field).vectors
            values = np.linalg.eigvalsh(x.T @ x.conj())
            worst = max(worst, float(np.abs(values - 1.0).max()))
    assert worst <= 1e-14


def test_random_draws_run_no_eigendecomposition(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("hermitian_eig called")

    g = fl.quadratic_gleason(fl.random_hermitian(3, seed=1))
    monkeypatch.setattr(fl.linalg, "hermitian_eig", refuse)
    assert len(fl.random_parseval(4, 6)) == 6
    assert fl.verify_parseval_gleason(g, 5, trials=6).passed


def _per_row_rows(rng, k, m, field):
    # The orthonormalization rule one generator and one row at a time,
    # with np.vdot, as it was written before the stacked pass: the
    # reference for the stacked rule's bits and its redraws.
    rows = []
    for v in rng.field_gaussians((k, m), field):
        while True:
            for _ in range(2):
                for u in rows:
                    v = v - np.vdot(u, v) * u
            norm = math.sqrt(np.add.reduce(np.abs(v) ** 2))
            if norm > 1e-8:
                rows.append(v / norm)
                break
            v = rng.field_gaussians(m, field)
    return np.array(rows)


def _generator_state(rng):
    return rng.state, rng._spare


class _RepeatedRow(SplitMix64):
    """A generator whose first block repeats row 0 as row 1, so that
    row 1 projects to zero and must be redrawn.  The per-row rule draws
    that block with field_gaussians; a stack draws it in the frame
    pass's run of _field_runs, which _repeat_rows_in_stacks patches."""

    def __init__(self, seed):
        super().__init__(seed)
        self.first = True

    def field_gaussians(self, shape, field):
        out = super().field_gaussians(shape, field)
        if self.first:
            self.first = False
            out[1] = out[0]
        return out


def _repeat_rows_in_stacks(monkeypatch, m):
    # Row 1 of each _RepeatedRow's first stacked block, of rows of
    # length m, repeats row 0.
    draw = fl.frames._field_runs

    def runs(rngs, counts, field):
        out = draw(rngs, counts, field)
        at = 0
        for rng, count in zip(rngs, counts):
            if isinstance(rng, _RepeatedRow) and rng.first:
                rng.first = False
                out[at + m:at + 2 * m] = out[at:at + m]
            at += count
        return out

    monkeypatch.setattr(fl.frames, "_field_runs", runs)


def _stream(rngs, k, sizes, field):
    # The blocks the random-frame stream yields for rngs[t] with frame
    # size sizes[t], each checked to come with its own draw, in order.
    draws = [(rng, n) for rng, n in zip(rngs, sizes)]
    got = list(fl.frames._random_rows(iter(draws), k, field))
    assert [draw for draw, _ in got] == draws
    for (_, n), (_, block) in zip(draws, got):
        assert block.shape == (k, n)
    return [block for _, block in got]


@pytest.mark.parametrize("field", ["R", "C"])
def test_stacked_orthonormal_rows_match_the_per_row_rule(field):
    # Each frame of a stack has the bytes of the per-row rule on its
    # own generator, and every generator ends where that rule leaves it.
    for k, m in [(1, 1), (1, 4), (2, 2), (2, 5), (3, 3), (3, 6), (4, 4),
                 (4, 7), (8, 8), (5, 13)]:
        seeds = [0, 1, 7919, 2**64 - 1, 12345]
        rngs = [SplitMix64(s) for s in seeds]
        stack = _stream(rngs, k, [m] * len(rngs), field)
        assert len(stack) == len(seeds)
        for s, rng, got in zip(seeds, rngs, stack):
            ref_rng = SplitMix64(s)
            want = _per_row_rows(ref_rng, k, m, field)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
            assert _generator_state(rng) == _generator_state(ref_rng)


def _started_generators(count):
    # Generators some words into their blocks, a third holding a spare.
    rngs = [SplitMix64(7919 * t + 1) for t in range(count)]
    for t, rng in enumerate(rngs):
        for _ in range(t % 5):
            rng.u64()
        if t % 3 == 0:
            rng.gaussians(3)
    return rngs


@pytest.mark.parametrize("field", ["R", "C"])
def test_a_stack_of_several_passes_matches_the_per_row_rule(field):
    # More generators than one pass takes: each frame, on either side of
    # a pass boundary, has the bytes of the per-row rule on its own
    # generator, which ends where that rule leaves it, holding no words.
    count = 2 * fl.frames._STACK_PASS + 3
    rngs, refs = _started_generators(count), _started_generators(count)
    stack = _stream(rngs, 2, [3] * count, field)
    assert len(stack) == count
    for rng, ref, got in zip(rngs, refs, stack):
        assert got.tobytes() == _per_row_rows(ref, 2, 3, field).tobytes()
        assert _generator_state(rng) == _generator_state(ref)
        assert rng._words.size == 0


@pytest.mark.parametrize("field", ["R", "C"])
def test_a_pass_of_mixed_sizes_stacks_each_size(field, monkeypatch):
    # One pass over frames of sizes in an interleaved order: one stack
    # per size, in order of first appearance, its frames in generator
    # order, each with the bytes of the per-row rule on its generator.
    sizes = [5, 3, 5, 8, 3, 3, 2, 5, 8, 4]
    rngs = _started_generators(len(sizes))
    refs = _started_generators(len(sizes))
    stacks = {}
    rule = fl.frames._orthonormalize

    def spy(group, out, field):
        stacks[out.shape[2]] = out
        return rule(group, out, field)

    monkeypatch.setattr(fl.frames, "_orthonormalize", spy)
    blocks = _stream(rngs, 2, sizes, field)
    assert list(stacks) == [5, 3, 8, 2, 4]
    drawn = {n: iter(stack) for n, stack in stacks.items()}
    for n, rng, ref, block in zip(sizes, rngs, refs, blocks):
        got = next(drawn[n])
        assert np.shares_memory(block, got)
        assert got.tobytes() == _per_row_rows(ref, 2, n, field).tobytes()
        assert _generator_state(rng) == _generator_state(ref)
    assert all(next(rest, None) is None for rest in drawn.values())


@pytest.mark.parametrize("field, k, m", [("R", 3, 5), ("C", 3, 4),
                                         ("R", 2, 2), ("C", 4, 6)])
def test_a_degenerate_row_is_redrawn_from_its_own_generator(
        field, k, m, monkeypatch):
    # Row 1 of the middle generator's block repeats row 0, so it
    # projects to zero and is redrawn after that generator's block; its
    # neighbours in the stack are untouched, and each frame is the one
    # its generator gives alone.  (R, 3, 5) leaves a spare normal, which
    # the redraw must take first.
    def stack_of_three():
        return [SplitMix64(11), _RepeatedRow(22), SplitMix64(33)]

    _repeat_rows_in_stacks(monkeypatch, m)
    rngs = stack_of_three()
    stack = _stream(rngs, k, [m] * 3, field)
    for rng, solo_rng, got in zip(rngs, stack_of_three(), stack):
        [solo] = _stream([solo_rng], k, [m], field)
        assert got.tobytes() == solo.tobytes()
        assert _generator_state(rng) == _generator_state(solo_rng)
    ref_rng = _RepeatedRow(22)
    assert stack[1].tobytes() == _per_row_rows(ref_rng, k, m, field).tobytes()
    assert _generator_state(rngs[1]) == _generator_state(ref_rng)
    # the redraw took variates beyond the block, and the rows are
    # orthonormal
    plain = SplitMix64(22)
    plain.field_gaussians((k, m), field)
    assert _generator_state(rngs[1]) != _generator_state(plain)
    assert_allclose(stack[1] @ stack[1].conj().T, np.eye(k), atol=1e-12)


def _stack_slices(r, rows, length, dtype):
    # A contiguous (rows, length) block and a strided column of a
    # (rows, 3, length) stack, both of the dtype.
    def draw(shape):
        x = r.standard_normal(shape)
        if dtype == np.complex128:
            x = x + 1j * r.standard_normal(shape)
        return x

    return draw((rows, length)), draw((rows, 3, length))[:, 1]


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_the_stacked_dots_have_the_per_row_bits(dtype):
    # The premise of the stacked Gram-Schmidt pass and of the quadratic
    # form's block evaluator: np.vecdot gives np.vdot's bits row by row,
    # and a stacked matrix-vector product gives a @ x's bits, on
    # contiguous blocks and on strided stack slices alike.  Should a
    # NumPy release move either off these kernels, this fails before the
    # pinned sweep hashes do.
    r = np.random.default_rng(20)
    for length in range(1, 9):
        for _ in range(20):
            for u, v in [_stack_slices(r, 7, length, dtype),
                         _stack_slices(r, 7, length, dtype)[::-1]]:
                got = np.vecdot(u, v)
                want = np.array([np.vdot(u[t], v[t]) for t in range(7)])
                assert got.tobytes() == want.tobytes()
            a = _stack_slices(r, length, length, dtype)[0]
            for x in _stack_slices(r, 7, length, dtype):
                got = np.matmul(a, x[..., None])[..., 0]
                want = np.array([a @ x[t] for t in range(7)])
                assert got.tobytes() == want.tobytes()
            # a complex operator on real rows, as the quadratic fit has
            if dtype == np.float64:
                a = _stack_slices(r, length, length, np.complex128)[0]
                for x in _stack_slices(r, 7, length, dtype):
                    y = np.matmul(a, x[..., None])[..., 0]
                    want = np.array([a @ x[t] for t in range(7)])
                    assert y.tobytes() == want.tobytes()
                    got = np.vecdot(x, y)
                    want = np.array([np.vdot(x[t], y[t]) for t in range(7)])
                    assert got.tobytes() == want.tobytes()


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


@pytest.mark.parametrize("d", range(1, 21))
def test_simplex_closed_form_against_numpy(d):
    x = fl.simplex_etf(d).vectors
    assert x.shape == (d + 1, d) and x.dtype == np.float64
    gram = x @ x.T
    off = gram[~np.eye(d + 1, dtype=bool)]
    assert np.max(np.abs(off + 1.0 / d), initial=0.0) <= 1e-15
    assert np.max(np.abs(np.linalg.norm(x, axis=1) - 1.0)) <= 1e-15
    assert np.max(np.abs(x.T @ x - (d + 1) / d * np.eye(d))) <= 2e-15
    # Basis vector i starts at coordinate i, so vector k has exact
    # zeros past its k-th entry.
    assert not np.triu(x, 1).any()


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


def _two_block_frames():
    # harmonic_frame(1, 400) spans two row blocks of 327 rows, and every
    # pair has magnitude 1/400.  Appending [[0.025]] adds pairs of
    # magnitude 1/800, which the first block's columns already hold.
    f = fl.harmonic_frame(1, 400)
    return f, Frame(np.vstack([f.vectors, [[0.025]]]), "C")


def test_an_equiangular_frame_over_two_blocks_keeps_its_angle():
    f, _ = _two_block_frames()
    assert fl.is_equiangular(f) == (True, 0.0025)
    assert canonical_json(fl.analyze_frame(f)) == (
        '{"coherence":null,"common_angle":0.0025000000000000001,"dim":1,'
        '"field":"C","frame_potential":1,"is_equiangular":true,'
        '"is_parseval":true,"is_tight":true,"is_unit_norm":false,'
        '"lower_bound":1,"num_vectors":400,"upper_bound":1,'
        '"welch_bound":1}')


def test_a_spread_past_tol_inside_the_pass_gives_no_angle():
    _, g = _two_block_frames()
    assert fl.is_equiangular(g) == (False, None)
    assert canonical_json(fl.analyze_frame(g)) == (
        '{"coherence":null,"common_angle":null,"dim":1,"field":"C",'
        '"frame_potential":1.0012503906249997,"is_equiangular":false,'
        '"is_parseval":false,"is_tight":true,"is_unit_norm":false,'
        '"lower_bound":1.0006249999999999,"num_vectors":401,'
        '"upper_bound":1.0006249999999999,"welch_bound":1}')


def test_the_largest_pair_after_the_spread_passes_tol_is_the_coherence():
    # Unit vectors at angles m pi / 800, m < 400, and one at 399.5 pi /
    # 800: the largest pair, cos(pi / 1600), is the last two vectors,
    # both in the second of two row blocks, where the first block has
    # already ruled out a common angle.
    phi = np.append(np.arange(400) * math.pi / 800, 399.5 * math.pi / 800)
    f = Frame(np.stack([np.cos(phi), np.sin(phi)], axis=1), "C")
    assert fl.is_equiangular(f) == (False, None)
    assert fl.coherence(f) == math.cos(math.pi / 1600) == 0.9999980723435097
    report = fl.analyze_frame(f)
    assert report.is_unit_norm and not report.is_equiangular
    assert (report.coherence, report.common_angle) == (fl.coherence(f), None)


def test_a_frame_that_is_not_unit_norm_reports_no_coherence():
    f = fl.random_parseval(3, 11, seed=2)
    report = fl.analyze_frame(f)
    assert not report.is_unit_norm and report.coherence is None
    assert fl.is_equiangular(f) == (False, None)
    assert not report.is_equiangular and report.common_angle is None


def test_gabor_coherence_is_the_ambiguity_peak():
    # The same magnitude by the Gram pass and by the ambiguity table's
    # product, which round apart in the last bits; the coherence bits
    # are pinned.
    u = fl.bjorck(43)
    coherence = fl.coherence(fl.gabor_frame(u))
    assert coherence == 0.2798172648776434
    assert_allclose(coherence, fl.ambiguity(u).peak_off_origin(), rtol=1e-14)


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
