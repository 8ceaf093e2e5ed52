"""Property tests against independent oracles.

Hypothesis runs derandomized with a small example budget, so every
run of the suite draws the same examples and stays fast.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import framelab as fl
from framelab.serialize import canonical_json, parse_json

SETTINGS = settings(
    derandomize=True, max_examples=40, deadline=None, database=None
)

dims = st.integers(min_value=1, max_value=6)
fields = st.sampled_from(["R", "C"])
seeds = st.integers(min_value=0, max_value=2**64 - 1)


def _unitary(d, seed, field):
    return fl.random_onb(d, seed=seed, field=field).vectors.T


@SETTINGS
@given(d=dims, field=fields, seed=seeds,
       exponent=st.integers(min_value=-150, max_value=150))
def test_eig_matches_eigvalsh_across_scales(d, field, seed, exponent):
    m = 10.0 ** exponent * fl.random_hermitian(d, seed=seed, field=field)
    w, v = fl.hermitian_eig(m)
    ref = np.linalg.eigvalsh(m)
    assert_allclose(w, ref, rtol=0, atol=1e-12 * float(np.max(np.abs(ref))))
    assert_allclose(v.conj().T @ v, np.eye(d), atol=1e-12)


@SETTINGS
@given(d=st.integers(min_value=2, max_value=6), field=fields, seed=seeds,
       gap=st.floats(min_value=1e-15, max_value=1e-6),
       clusters=st.lists(st.integers(min_value=0, max_value=2),
                         min_size=6, max_size=6))
def test_eig_matches_eigvalsh_near_degenerate(d, field, seed, gap, clusters):
    # Eigenvalues gather in clusters at -1, 0 and 1; inside a cluster
    # they sit ``gap`` apart.
    spectrum = np.array(
        [c - 1.0 + gap * i for i, c in enumerate(clusters[:d])]
    )
    q = _unitary(d, seed, field)
    m = (q * spectrum) @ q.conj().T
    m = (m + m.conj().T) / 2.0
    w, v = fl.hermitian_eig(m)
    assert_allclose(w, np.linalg.eigvalsh(m), rtol=0, atol=1e-13)
    assert_allclose((v * w) @ v.conj().T, m, atol=1e-12)


@SETTINGS
@given(field=fields, seed=seeds, rank=st.integers(min_value=1, max_value=19))
def test_eig_matches_eigvalsh_on_projectors(field, seed, rank):
    # Two eigenvalues of high multiplicity, 0 and 1, as in the effects
    # of POVMs grouped from Parseval frames.
    q = _unitary(20, seed, field)[:, :rank]
    m = q @ q.conj().T
    m = (m + m.conj().T) / 2.0
    w, v = fl.hermitian_eig(m)
    assert_allclose(w, np.linalg.eigvalsh(m), rtol=0, atol=1e-13)
    assert_allclose((v * w) @ v.conj().T, m, atol=1e-13)


finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@SETTINGS
@given(re=st.lists(finite_floats, min_size=1, max_size=12),
       im=st.lists(finite_floats, min_size=12, max_size=12))
def test_canonical_json_round_trip_is_bit_exact(re, im):
    # -0.0 is written as 0 on purpose; every other float comes back
    # with the same bits.
    z = np.array(re) + 1j * np.array(im[:len(re)])
    obj = {"re": z.real, "pairs": z, "nested": [[x] for x in re]}
    back = parse_json(canonical_json(obj))

    def bits(xs):
        return (np.asarray(xs, dtype=np.float64) + 0.0).view(np.uint64)

    assert np.array_equal(bits(back["re"]), bits(z.real))
    pairs = np.array(back["pairs"], dtype=np.float64)
    assert np.array_equal(bits(pairs[:, 0]), bits(z.real))
    assert np.array_equal(bits(pairs[:, 1]), bits(z.imag))
    assert np.array_equal(bits([x[0] for x in back["nested"]]), bits(re))


@SETTINGS
@given(d=dims, extra=st.integers(min_value=0, max_value=5), field=fields,
       seed=seeds, labels=st.lists(st.integers(min_value=0, max_value=3),
                                   min_size=11, max_size=11))
def test_grouped_povm_round_trips_through_frame(d, extra, field, seed, labels):
    n = d + extra
    f = fl.random_parseval(d, n, seed=seed, field=field)
    groups = [[i for i in range(n) if labels[i] == j] for j in range(4)]
    p = fl.povm_from_frame_grouped(f, groups)
    result = fl.frame_from_povm(p)
    x = result.frame.vectors
    for effect, rows in zip(p.effects, result.partition):
        rebuilt = x[rows].T @ x[rows].conj()
        assert_allclose(rebuilt, effect, rtol=0, atol=1e-12)
