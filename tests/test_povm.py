import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import framelab as fl
import framelab.linalg
from framelab import Frame, Povm, SplitMix64, cli
from framelab.serialize import povm_from_json, povm_to_json, write_json


def _flat_povm(d=2, n=4, seed=0, field="C"):
    return fl.povm_from_frame(fl.random_parseval(d, n, seed=seed, field=field))


def test_povm_from_frame_effects_are_effects():
    p = _flat_povm(3, 6, seed=2)
    assert len(p) == 6 and p.dim == 3
    for j in range(len(p)):
        assert fl.is_effect(p.effects[j])
    assert_allclose(np.sum(p.effects, axis=0), np.eye(3), atol=1e-12)
    fl.check_povm(p)  # should not raise


def test_is_effect_rejects_non_effects():
    assert fl.is_effect(np.zeros((2, 2)))
    assert fl.is_effect(np.diag([0.0, 1.0]))
    assert not fl.is_effect(np.diag([0.0, 2.0]))
    assert not fl.is_effect(np.ones((2, 3)))
    assert not fl.is_effect(np.array([[0.5, 0.1], [0.0, 0.5]]))
    # far from Hermitian at any scale, however small its entries
    assert not fl.is_effect(1e-12 * np.array([[0.0, 1.0], [0.0, 0.0]]))


# --- the effect rule at the edges of [-tol, 1 + tol] ------------------------


def _edge_effect(d, zeros, extreme, seed):
    # Hermitian E with eigenvalue ``extreme``, ``zeros`` zero eigenvalues
    # and the rest uniform in [0, 1), in a random orthonormal basis.
    rng = SplitMix64(seed)
    values = [extreme] + [0.0] * zeros
    values += [rng.uniform() for _ in range(d - len(values))]
    q = fl.random_onb(d, seed=seed, field="RC"[seed % 2]).vectors
    e = (q.T * values) @ q.conj()
    return (e + e.conj().T) / 2.0


@pytest.mark.parametrize("side", ["low", "high"])
@pytest.mark.parametrize("eps", [0.5, -0.5, 0.1, -0.1, 0.01, -0.01,
                                 0.001, -0.001])
def test_the_effect_rule_agrees_with_eigvalsh_at_the_edges(side, eps):
    # The extreme eigenvalue sits at -tol (1 + eps) or 1 + tol (1 + eps):
    # inside [-tol, 1 + tol] for eps < 0, outside for eps > 0, next to a
    # cluster of zero eigenvalues.
    tol = 1e-10
    extreme = -tol * (1 + eps) if side == "low" else 1 + tol * (1 + eps)
    probes = 0
    for d in (2, 3, 6, 13, 20):
        for zeros in sorted({1, d // 2}):
            for seed in range(8):
                e = _edge_effect(d, zeros, extreme, 1000 * d + seed)
                w = np.linalg.eigvalsh(e)
                inside = bool(w[0] >= -tol and w[-1] <= 1 + tol)
                assert inside == (eps < 0)
                assert fl.is_effect(e, tol) == inside, (d, zeros, seed)
                probes += 1
    assert probes == 64


def test_the_effect_rule_rejects_what_a_diagonal_stop_accepts():
    tol = 1e-10
    # zero diagonal, eigenvalues -1 and 1
    assert not fl.is_effect(np.array([[0.0, 1.0], [1.0, 0.0]]))
    for d in (3, 4, 6):
        # zero diagonal, least eigenvalue tol (1 - d) < -tol
        ones = np.ones((d, d))
        assert not fl.is_effect(tol * (np.eye(d) - ones), tol)
    # Eigenvalue -1.5 tol in a rotated basis: once the first pivot is
    # eliminated, its diagonal, if left at roundoff above 0, would pass
    # the pivot test and hide the negative pivot left.
    q = fl.random_onb(2, seed=7, field="R").vectors
    e = (q.T * [-1.5 * tol, 1.0]) @ q
    assert not fl.is_effect((e + e.T) / 2.0, tol)
    assert fl.is_effect((q.T * [-0.5 * tol, 1.0]) @ q, tol)


def test_a_povm_refuses_effects_of_dimension_zero():
    # It constructed, and every check then raised "matrix is empty",
    # which never named the effects.  Still an InputError: exit code 2.
    with pytest.raises(fl.InputError,
                       match="^effects must be at least 1 x 1, got 0 x 0$"):
        Povm(np.zeros((1, 0, 0)))


@pytest.mark.parametrize("effects, partition, message", [
    (np.eye(2), None, r"effects must have shape \(k, d, d\), got \(2, 2\)"),
    (np.zeros((0, 2, 2)), None, "a POVM needs at least one effect"),
    (np.stack([np.eye(2) / 2] * 2), [[0, 1]],
     "partition length does not match the number of effects"),
], ids=["2-d", "no-effect", "partition-length"])
def test_a_povm_refuses_a_malformed_family(effects, partition, message):
    with pytest.raises(fl.InputError, match=f"^{message}$"):
        Povm(effects, partition)


def test_povm_from_frame_requires_parseval():
    f = Frame(2.0 * fl.standard_onb(2).vectors, "R")
    with pytest.raises(fl.NotParsevalError):
        fl.povm_from_frame(f)
    with pytest.raises(fl.NotParsevalError):
        fl.povm_from_frame_grouped(f, [[0], [1]])


def test_grouped_effects_sum_matches_groups():
    f = fl.random_parseval(2, 5, seed=11)
    part = [[0, 2], [1, 3, 4]]
    p = fl.povm_from_frame_grouped(f, part)
    assert p.partition == part
    x = f.vectors
    e0 = np.outer(x[0], x[0].conj()) + np.outer(x[2], x[2].conj())
    assert_allclose(p.effects[0], e0, atol=1e-13)
    # empty group gives the zero effect
    q = fl.povm_from_frame_grouped(f, [[0, 1, 2, 3, 4], []])
    assert_allclose(q.effects[1], np.zeros((2, 2)), atol=0)


def test_partition_validation():
    f = fl.random_parseval(2, 4, seed=1)
    with pytest.raises(fl.BadPartitionError):
        fl.povm_from_frame_grouped(f, [[0, 1], [1, 2, 3]])
    with pytest.raises(fl.BadPartitionError):
        fl.povm_from_frame_grouped(f, [[0, 1], [3]])
    with pytest.raises(fl.BadPartitionError):
        fl.povm_from_frame_grouped(f, [[0, 1, 2], [3, 4]])
    with pytest.raises(fl.BadPartitionError):
        fl.povm_from_frame_grouped(f, [[-1, 0, 1, 2, 3]])


def test_check_povm_rejects_bad_families():
    eye = np.eye(2, dtype=complex)
    with pytest.raises(fl.NotPovmError):
        fl.check_povm(Povm(np.array([eye, eye])))  # sums to 2I
    skew = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(fl.NotPovmError):
        fl.check_povm(Povm(np.array([skew, eye - skew])))
    big = np.array([[2.0, 0.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(fl.NotPovmError):
        fl.check_povm(Povm(np.array([big, eye - big])))  # eigenvalue 2


def test_analyze_povm_measures_what_check_povm_judges():
    eye = np.eye(2, dtype=complex)
    big = np.array([[2.0, 0.0], [0.0, 0.0]], dtype=complex)
    cases = [
        (_flat_povm(3, 6, seed=2), True, True),
        (Povm(np.array([eye, eye])), True, False),  # sums to 2I
        (Povm(np.array([big, eye - big])), False, True),  # eigenvalue 2
        (Povm(np.array([0.5 * eye, 0.5 * eye, big])), False, False),
    ]
    for p, effects_valid, sums_to_identity in cases:
        report = fl.analyze_povm(p)
        assert report.effects_valid == effects_valid
        assert (report.sum_deviation <= report.tol) == sums_to_identity
        assert report.valid == (effects_valid and sums_to_identity)
        if report.valid:
            fl.check_povm(p)
        else:
            with pytest.raises(fl.NotPovmError):
                fl.check_povm(p)


def test_frame_from_povm_roundtrip_flat():
    p = _flat_povm(2, 4, seed=7)
    frame, part, dropped = fl.frame_from_povm(p)
    # rank-one effects: one vector kept per effect, one zero dropped
    assert dropped == 4 and len(frame) == 4
    assert part == [[0], [1], [2], [3]]
    assert fl.is_parseval(frame)
    # the recovered vectors generate the same effects (up to phase)
    for j, g in enumerate(part):
        e = sum(np.outer(frame.vectors[i], frame.vectors[i].conj()) for i in g)
        assert_allclose(e, p.effects[j], atol=1e-10)


def test_frame_from_povm_pad_zeros_shape():
    p = _flat_povm(3, 5, seed=9)
    frame, part, dropped = fl.frame_from_povm(p, pad_zeros=True)
    assert len(frame) == 5 * 3  # every effect yields exactly d rows
    assert dropped == 5 * 3 - 5
    assert fl.is_parseval(frame)
    assert all(len(g) == 3 for g in part)


def test_frame_from_povm_rows_come_in_pivot_order():
    # diag(1/2, 1): the larger diagonal entry is eliminated first
    e1 = np.diag([0.5, 0.0]).astype(complex)
    e2 = np.diag([0.5, 1.0]).astype(complex)
    frame, part, dropped = fl.frame_from_povm(Povm(np.array([e1, e2])))
    assert dropped == 1
    assert part == [[0], [1, 2]]
    assert frame.vectors.tolist() == [
        [math.sqrt(0.5), 0.0], [0.0, 1.0], [math.sqrt(0.5), 0.0]]
    # real input comes back as a real frame
    assert frame.field == "R"
    # A full-rank effect: each row's pivot entry is real, positive, the
    # largest of its row and no larger than the one before, and the
    # rows after it are zero there.
    f = fl.random_parseval(4, 9, seed=3)
    p = fl.povm_from_frame_grouped(f, [[0, 1, 2, 3, 4], [5, 6, 7, 8]])
    frame, part, dropped = fl.frame_from_povm(p)
    assert dropped == 0 and [len(g) for g in part] == [4, 4]
    for g in part:
        x = frame.vectors[g]
        pivots = np.argmax(np.abs(x), axis=1)
        heads = x[np.arange(4), pivots]
        assert sorted(pivots.tolist()) == [0, 1, 2, 3]
        assert np.all(heads.imag == 0) and np.all(heads.real > 0)
        assert np.all(np.diff(heads.real) <= 0)
        for r in range(4):
            assert not x[r + 1:, pivots[r]].any()


def test_frame_from_povm_keeps_small_imaginary_parts():
    # The imaginary entry is far below tol, but it is part of the
    # effects: a frame tagged real would drop it.
    e1 = np.array([[0.3, 1e-13j], [-1e-13j, 0.7]])
    p = Povm(np.array([e1, np.eye(2) - e1]))
    frame, part, dropped = fl.frame_from_povm(p)
    assert frame.field == "C" and dropped == 0
    x = frame.vectors
    for effect, rows in zip(p.effects, part):
        rebuilt = x[rows].T @ x[rows].conj()
        assert_allclose(rebuilt, effect, rtol=0, atol=1e-15)


def test_frame_from_povm_drops_d_minus_rank():
    # Grouped rank-one effects of a frame in general position have rank
    # min(group size, d); with pad_zeros the dropped rows are zeros
    # after each effect's own rows.
    d = 4
    f = fl.random_parseval(d, 9, seed=5)
    groups = [[0], [1, 2], [3, 4, 5], [6, 7, 8], []]
    p = fl.povm_from_frame_grouped(f, groups)
    ranks = [int(np.sum(np.linalg.eigvalsh(e) > 1e-10)) for e in p.effects]
    assert ranks == [1, 2, 3, 3, 0]
    frame, part, dropped = fl.frame_from_povm(p)
    assert [len(g) for g in part] == ranks
    assert dropped == sum(d - r for r in ranks)
    padded, pad_part, pad_dropped = fl.frame_from_povm(p, pad_zeros=True)
    assert pad_dropped == dropped and all(len(g) == d for g in pad_part)
    for rows, pad_rows, r in zip(part, pad_part, ranks):
        assert_allclose(padded.vectors[pad_rows[:r]], frame.vectors[rows],
                        rtol=0, atol=0)
        assert not padded.vectors[pad_rows[r:]].any()


def _povm_of_parts(field):
    # Three effects on C^3: a real rank-one effect, a rank-one effect of
    # the field, and the rest of the identity.
    rng = SplitMix64(11)
    u = rng.field_gaussians(3, "R")
    v = rng.field_gaussians(3, field)
    e0 = 0.5 * np.outer(u, u) / (u @ u)
    e1 = 0.25 * np.outer(v, v.conj()) / np.vdot(v, v).real
    return Povm(np.array([e0, e1, np.eye(3) - e0 - e1]))


# Pinned before the effects of a POVM were checked and factored as
# stacks, one per dtype: sha256 of the frame's row bytes, plain and
# padded, and of the file `convert --to frame` writes, plain and padded.
PARTS_PINS = {
    "C": ("d5797d9978292901918316a4a94a13ea56d7bb2645015b36ecffe7286924417a",
          "e50faf8f4d2c6596a875c3b9c3c578784f4ee762600de84e7ca480ae4b09ff84",
          "e9b99f9bfabb8423117efa242fd65b6fb573bc42445bef58786dcab399839991",
          "897f9f5dcc88a0bef0b763868709bba442dfab902da8777af0ed8c99ca812ef7"),
    "R": ("ae5e8f4a2259f209bfcfaa61fb41f1d2b890c4a9168fbbfdc7d1c1f841a80dbe",
          "9eaabf140d89c6b7dbce92d3e09235c38b6377e7a7162fa2a54c25c4206bba97",
          "7c222da6f0e028508ee2080650c736c1b6121e21a6a9cec4420cb0788b944054",
          "25d30886e491a22bcc82d0a53294d3730ee669fd54a898e89d384eead8095326"),
}


@pytest.mark.parametrize("field", ["C", "R"])
def test_real_and_complex_effects_keep_their_bits(field, tmp_path, capsys):
    # With field C, effect 0's Hermitian part is real and the others'
    # complex, so the effects are factored as two stacks, one per dtype.
    p = _povm_of_parts(field)
    assert [bool(e.imag.any()) for e in p.effects] == [
        False, field == "C", field == "C"]
    fl.check_povm(p)
    assert fl.analyze_povm(p).valid
    frame, part, dropped = fl.frame_from_povm(p)
    padded = fl.frame_from_povm(p, pad_zeros=True)
    assert frame.field == padded.frame.field == field
    assert part == [[0], [1], [2, 3, 4]] and dropped == 4
    assert padded.partition == [[0, 1, 2], [3, 4, 5], [6, 7, 8]]
    assert padded.dropped == 4
    path = tmp_path / "povm.json"
    write_json(path, povm_to_json(p))
    texts = []
    for extra in ([], ["--pad-zeros"]):
        out = tmp_path / "frame.json"
        assert cli.main(["convert", str(path), "--to", "frame",
                         "--out", str(out), *extra]) == 0
        texts.append(out.read_bytes())
    capsys.readouterr()
    digests = tuple(hashlib.sha256(b).hexdigest() for b in (
        frame.vectors.tobytes(), padded.frame.vectors.tobytes(), *texts))
    assert digests == PARTS_PINS[field]


def test_an_invalid_effect_is_named_across_the_dtype_stacks():
    # Effect 2 is complex and negative, effect 0 real and valid: the
    # first invalid effect is named in effect order, not stack order.
    p = _povm_of_parts("C")
    e = p.effects
    bad = Povm(np.array([e[0], e[1], -e[1]]))
    assert fl.analyze_povm(bad).effects_valid is False
    with pytest.raises(fl.NotPovmError, match="^effect 2 is not a valid"):
        fl.check_povm(bad)
    with pytest.raises(fl.NotPovmError, match="^effect 1 is not a valid"):
        fl.frame_from_povm(Povm(np.array([e[0], -e[1], e[2]])))
    assert [fl.is_effect(x) for x in bad.effects] == [True, True, False]


def test_the_povm_checks_and_factors_run_no_eigensolver(monkeypatch):
    f = fl.random_parseval(3, 6, seed=4)
    p = fl.povm_from_frame_grouped(f, [[0, 1], [2], [3, 4, 5]])
    calls = []

    def counting(m, tol=None):
        calls.append(m)
        raise AssertionError("hermitian_eig called")

    monkeypatch.setattr(framelab.linalg, "hermitian_eig", counting)
    monkeypatch.setattr(fl, "hermitian_eig", counting)
    fl.frame_from_povm(p)
    fl.frame_from_povm(p, pad_zeros=True)
    fl.check_povm(p)
    assert fl.analyze_povm(p).valid
    assert all(fl.is_effect(e) for e in p.effects)
    assert calls == []


def test_frame_from_povm_checks_validity():
    eye = np.eye(2, dtype=complex)
    with pytest.raises(fl.NotPovmError):
        fl.frame_from_povm(Povm(np.array([eye, eye])))


def test_born_probabilities_basic():
    onb = fl.standard_onb(3, "C")
    p = fl.povm_from_frame(onb)
    e0 = onb.vectors[0]
    rho = np.outer(e0, e0.conj())
    probs = fl.born_probabilities(rho, p)
    assert_allclose(probs, [1.0, 0.0, 0.0], atol=1e-14)


def test_born_probabilities_random():
    rng = SplitMix64(40)
    for _ in range(20):
        d = 2 + rng.below(3)
        rho = fl.random_density(d, seed=rng.u64())
        p = fl.povm_from_frame(fl.random_parseval(d, d + 2, seed=rng.u64()))
        probs = fl.born_probabilities(rho, p)
        assert float(np.min(probs)) >= -1e-12
        assert abs(float(np.sum(probs)) - 1.0) <= 1e-12


def test_born_probabilities_have_the_bits_of_the_per_effect_traces():
    # The stacked trace against the loop it replaced: trace(rho @ E_j)
    # one effect at a time, real part kept.
    rng = SplitMix64(41)
    for d in range(1, 21):
        for k in range(2, 6):
            f = fl.random_parseval(d, max(d, k) + rng.below(3),
                                   seed=rng.u64())
            groups = [list(range(i, len(f), k)) for i in range(k)]
            p = fl.povm_from_frame_grouped(f, groups)
            rho = fl.random_density(d, seed=rng.u64())
            want = [complex(np.trace(rho @ e)).real for e in p.effects]
            got = fl.born_probabilities(rho, p)
            assert got.flags.c_contiguous
            assert got.tobytes() == np.array(want).tobytes()


def test_born_names_the_first_effect_off_the_real_line():
    p = fl.povm_from_frame(fl.standard_onb(3, "C"))
    rho = np.diag([0.5, 0.25 + 1e-3j, 0.25 - 1e-2j])
    with pytest.raises(fl.InputError, match=r"^probability 1 has imaginary "
                       r"residue 1\.000e-03; state or effects are far"):
        fl.born_probabilities(rho, p)


def test_born_imaginary_residue_is_judged_at_tol():
    p = fl.povm_from_frame(fl.standard_onb(2, "C"))
    rho = np.diag([0.5 + 5e-9j, 0.5 - 5e-9j])
    probs = fl.born_probabilities(rho, p, tol=1e-8)
    assert probs.tolist() == [0.5, 0.5]
    with pytest.raises(fl.InputError, match="imaginary residue"):
        fl.born_probabilities(rho, p, tol=1e-10)
    # A trace that overflows to NaN passed the residue test and gave [nan].
    huge = np.array([[1e308 + 1e308j, 1e308 + 1e308j], [0.0, 0.0]])
    q = Povm(np.array([[[2.0, 0.0], [-2.0, 0.0]]]))
    with np.errstate(all="ignore"), pytest.raises(
            fl.InputError, match="imaginary residue nan;"):
        fl.born_probabilities(huge, q)


def test_born_dim_mismatch():
    p = _flat_povm(2, 4)
    with pytest.raises(fl.DimMismatchError):
        fl.born_probabilities(np.eye(3) / 3.0, p)
    with pytest.raises(fl.DimMismatchError):
        fl.born_probabilities(np.ones(2), p)


@pytest.mark.parametrize("rho, message", [
    (np.array([[np.nan, 0.0], [0.0, 1.0]]), "^state contains non-finite"),
    (np.array([[0.5, 0.0], [0.0, complex(0.5, np.inf)]]),
     "^state contains non-finite"),
    (np.array([["a", "b"], ["c", "d"]]), "^state must be numeric$"),
], ids=["nan", "inf-imaginary", "strings"])
def test_born_applies_the_array_rule_to_the_state(rho, message):
    # A NaN state once gave NaN probabilities, and a string matrix a
    # bare ValueError.
    p = _flat_povm(2, 4)
    with pytest.raises(fl.InputError, match=message):
        fl.born_probabilities(rho, p)
    # a wrong shape is still reported as such first
    with pytest.raises(fl.DimMismatchError):
        fl.born_probabilities(np.full((3, 3), np.nan), p)


def test_random_density_is_a_state():
    for field in ("C", "R"):
        rho = fl.random_density(4, seed=3, field=field)
        assert_allclose(rho, rho.conj().T, atol=1e-14)
        assert_allclose(float(np.trace(rho).real), 1.0, atol=1e-14)
        w = np.linalg.eigvalsh(rho)
        assert float(w[0]) >= -1e-14


def test_generalized_measure_accepts_trace_rule():
    rho = fl.random_density(3, seed=5)
    report = fl.check_generalized_measure(
        lambda e: float(np.trace(rho @ e).real), 3, 5, trials=20, seed=8
    )
    assert report.passed
    assert report.identity_deviation <= 1e-12
    assert report.additivity_deviation <= 1e-12
    assert report.range_min >= -1e-12 and report.range_max <= 1.0 + 1e-12
    assert report.witness is None


def test_generalized_measure_rejects_nonadditive():
    rho = fl.random_density(2, seed=6)
    # squaring the trace rule keeps the range but breaks additivity
    report = fl.check_generalized_measure(
        lambda e: float(np.trace(rho @ e).real) ** 2, 2, 4, trials=10, seed=3
    )
    assert not report.passed
    assert report.additivity_deviation > 1e-3
    assert report.witness is not None
    fl.check_povm(report.witness)  # the witness is a genuine POVM


def test_an_additive_measure_off_the_range_names_the_first_povm_off_it():
    # tr(A E) with tr A = 1 sums to 1 over every POVM, but A has the
    # eigenvalue -0.5, so effects near its eigenvector score below 0.
    # With no sum deviation above tol, the witness is the first POVM
    # with a value outside [-tol, 1 + tol], not the one of the lowest.
    a = np.diag([1.5, -0.5])

    def v(e):
        return float(np.trace(a @ e).real)

    report = fl.check_generalized_measure(v, 2, 4, trials=5)
    assert not report.passed
    assert report.identity_deviation == 0.0
    assert report.additivity_deviation < 1e-15
    rng = SplitMix64(0)
    plans = (fl.povm._povm_plan(rng, 2, 4) for _ in range(5))
    lows = [min(map(v, p.effects)) for p in fl.povm._random_povms(
        plans, 2, "C")]
    assert [low < -1e-9 for low in lows] == [True] * 4 + [False]
    assert report.range_min == min(lows) == lows[3]
    assert report.range_min == pytest.approx(-0.1091, abs=1e-4)
    rng = SplitMix64(0)
    first = next(fl.povm._random_povms([fl.povm._povm_plan(rng, 2, 4)],
                                       2, "C"))
    assert np.array_equal(report.witness.effects, first.effects)


@pytest.mark.parametrize("at_identity", [1.0, math.nan],
                         ids=["elsewhere", "identity"])
def test_generalized_measure_rejects_a_non_finite_value(at_identity):
    # min and max passed over NaN: a functional that is 1 at I and NaN
    # elsewhere passed, with range_min inf and range_max -inf.
    def v(e):
        return at_identity if np.array_equal(e, np.eye(2)) else math.nan

    with pytest.raises(fl.InputError,
                       match="^effect functional is nan at an effect$"):
        fl.check_generalized_measure(v, 2, 4, trials=3)


def test_generalized_measure_rejects_a_complex_value():
    # float() dropped the imaginary part with only a ComplexWarning, and
    # this functional passed.
    rho = fl.random_density(2, seed=1)
    with pytest.raises(fl.InputError,
                       match="^effect functional has imaginary part "
                             r"5\.000e-01 at an effect$"):
        fl.check_generalized_measure(
            lambda e: np.trace(rho @ e) + 0.5j, 2, 4, trials=3)


def test_generalized_measure_takes_a_complex_value_at_roundoff_as_real():
    # float() of a Python complex raised a bare TypeError.
    rho = fl.random_density(2, seed=1)
    report = fl.check_generalized_measure(
        lambda e: complex(np.trace(rho @ e)), 2, 4, trials=3)
    assert report.passed
    assert report == fl.check_generalized_measure(
        lambda e: float(np.trace(rho @ e).real), 2, 4, trials=3)


def test_generalized_measure_family_size_floor():
    with pytest.raises(fl.BadFamilySizeError):
        fl.check_generalized_measure(lambda e: 1.0, 3, 4, trials=5)


def test_busch_and_born_experiments_pass_on_the_trace_rule():
    busch = fl.busch_experiment(2, states=3, trials=4, seed=1)
    assert busch.passed and busch.n_family == 4
    born = fl.born_experiment(3, trials=5, seed=2)
    assert born.passed and born.min_probability >= -1e-12


def _per_trial_povm(rng, d, k_min, field):
    # The per-trial rule the stacked draws replaced, kept as their
    # oracle: each trial's k, n, frame seed and groups from the
    # caller's generator, then its own random_parseval frame.
    k = k_min + rng.below(3)
    n = max(d, k) + rng.below(d + 2)
    f = fl.random_parseval(d, n, seed=rng.u64(), field=field)
    groups = [[] for _ in range(k)]
    for i in range(n):
        groups[rng.below(k)].append(i)
    return fl.povm_from_frame_grouped(f, groups)


@pytest.mark.parametrize("field", ["C", "R"])
def test_measure_checks_see_the_effects_of_the_per_trial_rule(field):
    # The functional sees the identity, then every effect of every
    # trial in order, with the bits of the per-trial rule; the reports
    # are equal to the last bit.
    for d, n_family, trials, seed in [(1, 3, 5, 0), (2, 4, 7, 1),
                                      (2, 5, 3, 2**64 - 1), (3, 5, 9, 7),
                                      (4, 7, 4, 11), (2, 4, 133, 5)]:
        rho = fl.random_density(d, seed=seed)
        seen = []

        def v(e):
            seen.append(np.asarray(e).tobytes())
            return float(np.trace(rho @ e).real) ** 2

        report = fl.check_generalized_measure(
            v, d, n_family, trials=trials, seed=seed, field=field)
        rng = SplitMix64(seed)
        want = [np.eye(d, dtype=np.complex128).tobytes()]
        worst = 0.0
        for _ in range(trials):
            p = _per_trial_povm(rng, d, n_family, field)
            want.extend(e.tobytes() for e in p.effects)
            total = sum(float(np.trace(rho @ e).real) ** 2 for e in p.effects)
            worst = max(worst, abs(total - 1.0))
        assert seen == want
        assert report.additivity_deviation == worst


def test_a_measure_check_stacks_each_frame_size_of_each_pass(monkeypatch):
    # One orthonormalization pass per distinct frame size among each
    # pass of plans, which covers every trial once, over blocks of every
    # size drawn in one run per pass, the runs of each size side by
    # side; random_parseval is not called.
    stacks, runs = [], []
    rule, draw = fl.frames._orthonormalize, fl.frames._field_runs

    def spy(rngs, out, field):
        stacks.append((len(rngs),) + out.shape[1:] + (field,))
        return rule(rngs, out, field)

    def spy_draw(rngs, counts, field):
        runs.append(list(counts))
        return draw(rngs, counts, field)

    def no_single_draw(*args, **kwargs):
        raise AssertionError("a trial drew its own frame")

    monkeypatch.setattr(fl.frames, "_orthonormalize", spy)
    monkeypatch.setattr(fl.frames, "_field_runs", spy_draw)
    monkeypatch.setattr(fl.frames, "random_parseval", no_single_draw)
    monkeypatch.setattr(fl.povm, "random_parseval", no_single_draw)
    size = fl.frames._STACK_PASS
    for trials in (12, 2 * size + 5):
        stacks.clear()
        runs.clear()
        fl.check_generalized_measure(lambda e: 0.5, 3, 5, trials=trials,
                                     seed=4)
        rng = SplitMix64(4)
        sizes = [fl.povm._povm_plan(rng, 3, 5)[1] for _ in range(trials)]
        want, want_runs = [], []
        for start in range(0, trials, size):
            part = sizes[start:start + size]
            want.extend((part.count(n), 3, n, "C")
                        for n in dict.fromkeys(part))
            want_runs.append([3 * n for n in dict.fromkeys(part)
                              for _ in range(part.count(n))])
        assert stacks == want
        assert runs == want_runs
        assert len(want) > len(range(0, trials, size))


def _traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name, run, per_trial", [
    ("check", lambda trials: fl.check_generalized_measure(
        lambda e: 0.5, 2, 4, trials=trials, seed=3), 16),
    ("born", lambda trials: fl.born_experiment(3, trials=trials, seed=3),
     100),
])
def test_a_measure_check_holds_one_pass_of_trials(name, run, per_trial):
    # The traced peak grows with trials by at most per_trial bytes a
    # trial: a check keeps nothing of a finished pass, and born keeps
    # two floats a trial.  The word-by-word generator, drawing one trial
    # at a time, grew by nothing and by 63 bytes; holding every trial's
    # plan and words grew by 4,170 and 4,660.
    growth = _traced_peak(lambda: run(2000)) - _traced_peak(lambda: run(200))
    assert growth <= per_trial * 1800, name


def test_born_experiment_draws_the_povms_of_the_per_trial_rule():
    for dim, trials, seed in [(1, 4, 0), (2, 6, 3), (3, 5, 2**64 - 1),
                              (2, 70, 9)]:
        rng = SplitMix64(seed)
        mins, sum_devs = [], []
        for _ in range(trials):
            rho = fl.random_density(dim, seed=rng.u64())
            probs = fl.born_probabilities(
                rho, _per_trial_povm(rng, dim, dim + 2, "C"))
            mins.append(float(np.min(probs)))
            sum_devs.append(abs(float(np.sum(probs)) - 1.0))
        report = fl.born_experiment(dim, trials=trials, seed=seed)
        assert report.min_probability == min(mins)
        assert report.max_sum_deviation == max(sum_devs)


def test_born_experiment_refuses_a_huge_state_before_planning_a_trial():
    # A plan loops over the frame's n >= dim vectors, so the state's
    # size check must come first, as it did when each trial drew alone.
    with pytest.raises(fl.InputError, match=r"^an array of shape "
                       r"\(1000000000000, 1000000000000\) is too large$"):
        fl.born_experiment(10**12, trials=3)


@pytest.mark.parametrize("run", [
    lambda: fl.born_experiment(2, trials=0),
    lambda: fl.busch_experiment(2, states=0),
    lambda: fl.busch_experiment(2, trials=0),
])
def test_povm_experiments_reject_a_zero_count(run):
    with pytest.raises(fl.InputError, match="need at least one trial"):
        run()


def test_povm_json_roundtrip():
    f = fl.random_parseval(2, 5, seed=13)
    p = fl.povm_from_frame_grouped(f, [[0, 1], [2, 3], [4]])
    q = povm_from_json(povm_to_json(p))
    assert q.dim == p.dim and len(q) == len(p)
    assert q.partition == p.partition
    assert np.array_equal(q.effects, p.effects)
    flat = _flat_povm(2, 3, seed=1)
    q2 = povm_from_json(povm_to_json(flat))
    assert q2.partition is None


def test_povm_json_rejects_malformed():
    with pytest.raises(fl.InputError):
        povm_from_json({"dim": 2})
    with pytest.raises(fl.InputError):
        povm_from_json({"dim": 2, "effects": []})
    with pytest.raises(fl.InputError):
        povm_from_json(
            {"dim": 2, "effects": [[[[1.0, 0.0]]]], "partition": None}
        )


def test_povm_rejects_non_numeric_effects():
    # once a bare ValueError from the complex cast
    for bad in (np.array([[["a"]]]), np.array([[[None]]], dtype=object)):
        with pytest.raises(fl.InputError, match="^effects must be numeric$"):
            Povm(bad)


def test_povm_rejects_non_finite_imaginary_parts_alone():
    for bad in (np.inf, -np.inf, np.nan):
        effects = np.zeros((2, 2, 2), dtype=complex)
        effects[0] = np.eye(2)
        effects[1, 0, 1] = complex(0.0, bad)
        with pytest.raises(fl.InputError,
                           match="^effects contain non-finite entries$"):
            Povm(effects)


# Each was a bare TypeError from iterating a number, except through the
# JSON loader, which checked the shape itself.
NOT_PARTITIONS = {
    "povm-number": lambda: Povm(np.eye(1)[None], partition=5),
    "povm-group-number": lambda: Povm(np.eye(1)[None], partition=[0]),
    "povm-group-none": lambda: Povm(np.full((2, 1, 1), 0.5),
                                    partition=[[0], None]),
    "grouped-flat": lambda: fl.povm_from_frame_grouped(
        fl.standard_onb(2), [0, 1]),
    "json-number": lambda: povm_from_json(
        {"dim": 1, "effects": [[[1.0]]], "partition": 5}),
}


@pytest.mark.parametrize("name", sorted(NOT_PARTITIONS))
def test_a_partition_is_a_list_of_index_lists(name):
    with pytest.raises(fl.InputError,
                       match="^partition must be a list of index lists$"):
        NOT_PARTITIONS[name]()


# --- the rank-one rule and the c I rule ------------------------------------


RANK_ONE_FRAMES = {
    "R-d1": lambda: fl.random_parseval(1, 3, seed=2, field="R"),
    "R-d3": lambda: fl.random_parseval(3, 7, seed=3, field="R"),
    "C-d2": lambda: fl.random_parseval(2, 5, seed=4),
    "C-harmonic": lambda: fl.harmonic_frame(3, 8),
    "padded-onb": lambda: fl.with_zeros(fl.standard_onb(2, "C"), 2),
}


@pytest.mark.parametrize("name", sorted(RANK_ONE_FRAMES))
def test_rank_one_effects_are_the_outer_products_bit_for_bit(name):
    f = RANK_ONE_FRAMES[name]()
    x = f.vectors.astype(np.complex128)
    outer = np.array([np.outer(r, r.conj()) for r in x])
    p = fl.povm_from_frame(f)
    assert p.effects.dtype == np.complex128
    assert p.effects.tobytes() == outer.tobytes()
    n = len(f)
    # Each group is summed from zero in its own order, so a singleton
    # group turns a -0.0 of its projection into 0.0.
    for part in ([list(range(n - 1, -1, -2)), [], list(range(n - 2, -1, -2))],
                 [[i] for i in range(n)]):
        summed = np.zeros((len(part), f.dim, f.dim), dtype=np.complex128)
        for j, group in enumerate(part):
            for i in group:
                summed[j] += outer[i]
        q = fl.povm_from_frame_grouped(f, part)
        assert q.effects.tobytes() == summed.tobytes()


def test_sum_deviation_is_the_largest_entry_of_the_sum_minus_identity():
    for p in (_flat_povm(3, 6, seed=1),
              Povm(np.array([np.eye(2), 0.25 * np.eye(2)])),
              Povm(np.array([[[0.5, 0.2j], [-0.2j, 0.4]]]))):
        oracle = np.max(np.abs(p.effects.sum(axis=0) - np.eye(p.dim)))
        assert fl.analyze_povm(p).sum_deviation == oracle


def test_a_bad_partition_is_reported_before_a_non_parseval_frame():
    f = Frame(np.ones((3, 2)), "R")
    with pytest.raises(fl.BadPartitionError, match="appears twice"):
        fl.povm_from_frame_grouped(f, [[0], [0, 1, 2]])
    with pytest.raises(fl.NotParsevalError):
        fl.povm_from_frame_grouped(f, [[0], [1, 2]])


@pytest.mark.parametrize("make", [
    lambda f: fl.povm_from_frame(f),
    lambda f: fl.povm_from_frame_grouped(f, [[0], [1]]),
], ids=["flat", "grouped"])
def test_the_parseval_precondition_reports_its_margin(make):
    f = Frame(2.0 * fl.standard_onb(2).vectors, "R")
    with pytest.raises(
        fl.NotParsevalError,
        match=r"^not a Parseval frame: its operator is off the identity by "
              r"3\.000e\+00 "
              r"\(allowed 1\.000e-10\)$",
    ):
        make(f)
