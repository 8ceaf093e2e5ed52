"""The array emitter against the scalar float rule, and pinned bytes."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

import framelab as fl
from framelab import serialize
from framelab.serialize import (
    _BLOCK_PARTS as B,
    ambiguity_to_csv,
    canonical_json,
    fit_result_to_json,
    flat_report_to_json,
    fmt_float,
    frame_from_json,
    frame_to_json,
    povm_from_json,
    povm_to_json,
    sequence_from_json,
    sequence_to_json,
    verification_report_to_json,
    write_json,
)

VALUES = [-0.0, 5e-324, -5e-324, 1e308, -1e308, 3.0, -7.0, 2.0**53, 0.0,
          0.1, 1.0 / 3.0, -2.5e-7]


def _field(a, dtype):
    # A complex array as it is, or its real part.
    return a if dtype == np.complex128 else a.real.copy()


def _gabor(dtype):
    return _field(fl.gabor_frame(fl.bjorck(13)).vectors, dtype)


def _harmonic(dtype):
    return _field(fl.harmonic_frame(5, 12).vectors, dtype)


def _recurring(dtype):
    # Distinct entries over two or three blocks but for 0.1, which
    # starts every row and so recurs in every block.
    a = _field(fl.SplitMix64(5).complex_gaussians((B // 2 + 1, 2)), dtype)
    a[:, 0] = 0.1
    return a


def _rows_per_unit(width, dtype):
    # Rows of `width` entries that fill one unit, half a block of float
    # parts.
    return B // 2 // (width * (2 if dtype == np.complex128 else 1))


def _stacked(dtype):
    # Three equal slabs of one unit each: the carry crosses slabs.
    return np.stack([_gabor(dtype)] * 3)


def _returning(dtype):
    # Three units of distinct entries but for 0.25, which is in the
    # first unit, not in the second and back in the third.
    rows = 3 * _rows_per_unit(2, dtype)
    a = _field(fl.SplitMix64(9).complex_gaussians((rows, 2)), dtype)
    a[0, 0] = a[-1, 0] = 0.25
    return a


def _tiled(dtype):
    # A Gabor frame tiled to one row past two units.
    g = _gabor(dtype)
    return np.resize(g, (2 * _rows_per_unit(13, dtype) + 1, 13))


def _signed_zeros(dtype):
    # -0.0 and 0.0 in each part, each pairing recurring.
    values = np.array([-0.0, 0.0, 1.5])
    if dtype != np.complex128:
        return np.resize(values, (5, 9))
    a = np.empty(9, dtype=np.complex128)
    a.real = np.repeat(values, 3)
    a.imag = np.tile(values, 3)
    return np.resize(a, (5, 9))


def _effects(dtype, d, slabs):
    # A stack of d x d slabs, as the effects of a POVM are stored, with
    # 0.1 starting every slab, so that it recurs in every unit.
    a = _field(fl.SplitMix64(11).complex_gaussians((slabs, d, d)), dtype)
    a[:, 0, 0] = 0.1
    return a


def _slab_split(dtype):
    # 6 x 6 slabs, an odd number of them just past one unit: two units
    # of near-equal rows, whose boundary at row 3 * slabs falls three
    # rows into a slab.
    return _effects(dtype, 6, (_rows_per_unit(6, dtype) // 6 + 1) | 1)


def _slab_aligned(dtype):
    # 8 x 8 slabs filling two units whose rows the slab height divides:
    # the unit boundary falls on a slab boundary.
    return _effects(dtype, 8, 2 * (_rows_per_unit(8, dtype) // 8))


# Rows of one real part: B rows fill one block.  The transposes are
# single rows longer than a block, and the last shape has slabs that
# span several blocks.  The functions of the dtype after them give
# arrays whose entries repeat: a Gabor and a harmonic frame, a value
# recurring in every block, and zeros of both signs.  The last three
# test the carry of formatted entries from unit to unit: across slabs,
# over a unit that lacks a value, and one row past two units.  Then
# come stacks of slabs whose units cross slabs, with a unit boundary
# inside a slab and on a slab boundary, empty slabs and empty rows, and
# a 4-D array, whose rows close two brackets at once.
SHAPES = [(0,), (1,), (5, 3), (2, 3, 3), (4, 0), (0, 2, 2),
          (B - 1, 1), (B, 1), (B + 1, 1), (2 * B + 1, 1), (3, B + 1, 1),
          _gabor, _harmonic, _recurring, _signed_zeros,
          _stacked, _returning, _tiled,
          _slab_split, _slab_aligned, (3, 0, 2), (2, 3, 0), (2, 3, 2, 2)]


def _rule(x):
    # The float rule written out: 17 significant digits of x + 0.0.
    return "%.17g" % (x + 0.0)


def _entrywise(a):
    # The reference: the float rule on every entry, complex ones as
    # pairs; test_scalars_follow_the_17_digit_rule holds fmt_float to it.
    def walk(x):
        if isinstance(x, list):
            return "[" + ",".join(walk(y) for y in x) + "]"
        if isinstance(x, complex):
            return f"[{_rule(x.real)},{_rule(x.imag)}]"
        return _rule(x)

    return walk(a.tolist())


def _filled(shape, dtype):
    if callable(shape):
        return shape(dtype)
    size = int(np.prod(shape))
    re = np.resize(np.array(VALUES), size)
    if dtype == np.complex128:
        im = np.resize(np.array(VALUES[3:] + VALUES[:3]), size)
        a = re.astype(np.complex128)
        a.imag = im
        return a.reshape(shape)
    return re.reshape(shape)


def first_difference(got: str, want: str, context: int = 40):
    """None when the texts are equal, else the first offset at which
    they differ with about ``context`` characters of each around it.
    Texts here run to megabytes, where pytest's own string diff of a
    failed ``==`` takes minutes."""
    if got == want:
        return None
    at = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w),
              min(len(got), len(want)))
    lo, hi = max(0, at - context // 2), at + context // 2
    return (f"offset {at} of {len(got)} against {len(want)}: "
            f"got {got[lo:hi]!r}, want {want[lo:hi]!r}")


def test_first_difference_names_the_offset():
    assert first_difference("abc", "abc") is None
    assert first_difference("abXd", "abcd").startswith("offset 2 of 4 ")
    assert first_difference("ab", "abc").startswith("offset 2 of 2 against 3")
    assert first_difference("", "") is None


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("shape", SHAPES)
def test_array_path_equals_fmt_float_entrywise(shape, dtype):
    a = _filled(shape, dtype)
    assert first_difference(canonical_json(a), _entrywise(a)) is None
    # non-contiguous views and nesting inside containers as well
    if a.ndim == 2:
        assert first_difference(canonical_json(a.T), _entrywise(a.T)) is None
    assert first_difference(canonical_json({"a": [a]}),
                            '{"a":[' + _entrywise(a) + "]}") is None


def test_negative_zero_collapses_in_both_parts():
    z = np.array([complex(-0.0, -0.0), -0.0j, complex(-0.0, 1.0)])
    assert canonical_json(z) == "[[0,0],[0,0],[0,1]]"
    assert canonical_json(np.array([-0.0, 0.0])) == "[0,0]"


def test_integer_bool_and_scalar_arrays_keep_their_bytes():
    assert canonical_json(np.arange(6).reshape(2, 3)) == "[[0,1,2],[3,4,5]]"
    assert canonical_json(np.array([True, False])) == "[true,false]"
    assert canonical_json(np.array(2.5)) == "2.5"
    assert canonical_json(np.array(-0.0)) == "0"
    assert canonical_json(np.array(1 - 2j)) == "[1,-2]"
    assert canonical_json(np.zeros((0,), dtype=np.int64)) == "[]"


def test_scalars_follow_the_17_digit_rule():
    # The scalar writers against the rule written out: 17 significant
    # digits of x + 0.0, [re,im] for a complex scalar, and the one
    # message for a non-finite part, real part first.
    for x in VALUES + [math.pi, -1e-300, 123456789.0]:
        assert fmt_float(x) == _rule(x)
        assert canonical_json(x) == fmt_float(x)
        assert canonical_json(np.float64(x)) == fmt_float(x)
        z = complex(x, -x)
        want = f"[{_rule(z.real)},{_rule(z.imag)}]"
        assert canonical_json(z) == canonical_json(np.complex128(z)) == want
    assert fmt_float(np.float32(0.1)) == _rule(float(np.float32(0.1)))
    for bad, shown in [(math.nan, "nan"), (-math.inf, "-inf"),
                       (complex(1.0, math.inf), "inf"),
                       (complex(-math.inf, math.nan), "-inf")]:
        message = f"^cannot serialize non-finite number {shown}$"
        with pytest.raises(fl.InputError, match=message):
            canonical_json(bad)
        if not isinstance(bad, complex):
            with pytest.raises(fl.InputError, match=message):
                fmt_float(bad)


@pytest.mark.parametrize("bad", [
    np.array([1.0, np.nan]),
    np.array([[0.0], [-np.inf]]),
    np.array([complex(np.inf, 0.0)]),
    np.array([[1.0 + 0j, complex(0.0, np.nan)]]),
])
def test_non_finite_arrays_are_rejected(bad):
    with pytest.raises(fl.InputError, match="non-finite"):
        canonical_json(bad)
    with pytest.raises(fl.InputError, match="non-finite"):
        canonical_json({"nested": [bad]})


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_non_finite_value_in_the_last_block_writes_nothing(dtype, tmp_path):
    a = np.ones((2 * B + 1, 1), dtype=dtype)
    a[-1, 0] = -np.inf
    with pytest.raises(fl.InputError, match="-inf"):
        canonical_json(a)
    fresh = tmp_path / "fresh.json"
    with pytest.raises(fl.InputError, match="-inf"):
        write_json(fresh, {"vectors": a})
    assert not fresh.exists()
    kept = tmp_path / "kept.json"
    kept.write_text("old\n")
    with pytest.raises(fl.InputError, match="-inf"):
        write_json(kept, {"vectors": a})
    assert kept.read_text() == "old\n"


# Objects whose only fault is an entry that is not a JSON number: an int
# or float, not a bool, that fits a float64.
NOT_NUMBERS = {
    "real-string": {"dim": 1, "field": "R", "vectors": [["0.5"]]},
    "real-true": {"dim": 1, "field": "R", "vectors": [[True]]},
    "real-huge-int": {"dim": 1, "field": "R", "vectors": [[10**400]]},
    "complex-bool-pair": {"dim": 1, "field": "C", "vectors": [[[True, False]]]},
    "complex-bare-bool": {"dim": 1, "field": "C", "vectors": [[True]]},
    "complex-string-pair": {"dim": 1, "field": "C", "vectors": [[["1", "0"]]]},
    "complex-huge-int": {"dim": 1, "field": "C", "vectors": [[[1.0, -10**400]]]},
    "povm-bool-part": {"dim": 1, "effects": [[[[1.0, False]]]]},
    "sequence-bool-part": {"length": 1, "entries": [[True, 0.0]]},
}
LOADERS = {"frame": frame_from_json, "povm": povm_from_json,
           "sequence": sequence_from_json}


@pytest.mark.parametrize("name", sorted(NOT_NUMBERS))
def test_loaders_accept_only_json_numbers(name):
    obj = NOT_NUMBERS[name]
    with pytest.raises(fl.InputError, match="not a number"):
        LOADERS[fl.sniff_kind(obj)](obj)


# Words Python's json reads as floats, though JSON has no such numbers.
NON_JSON_NUMBERS = {
    "frame-nan": '{"dim": 1, "field": "R", "vectors": [[NaN]]}',
    "frame-infinity": '{"dim": 1, "field": "C", "vectors": [[[0, Infinity]]]}',
    "povm-minus-infinity": '{"dim": 1, "effects": [[[-Infinity]]]}',
    "sequence-nan": '{"length": 1, "entries": [NaN]}',
}


@pytest.mark.parametrize("name", sorted(NON_JSON_NUMBERS))
def test_loaders_reject_nan_and_infinity(name):
    obj = fl.parse_json(NON_JSON_NUMBERS[name])
    with pytest.raises(fl.InputError, match="is not a number$"):
        LOADERS[fl.sniff_kind(obj)](obj)


def test_parse_rejects_integers_too_long_to_convert():
    with pytest.raises(fl.InputError, match="invalid JSON"):
        fl.parse_json("[1" + "0" * 5000 + "]")


def test_loaders_accept_ints_and_bare_complex_numbers():
    f = frame_from_json({"dim": 2, "field": "R", "vectors": [[1, 0.5]]})
    assert f.vectors.tolist() == [[1.0, 0.5]]
    u = sequence_from_json({"length": 2, "entries": [1, [0, -1]]})
    assert u.tolist() == [1, -1j]


NAN = float("nan")

# Inputs with two defects or more, and the one the readers name: the
# first in reading order, before any shape or length check.  Pinned
# before each array was read in one conversion.
FIRST_DEFECTS = {
    "matrix-bool-then-nan": (
        lambda: serialize.matrix_from_json([[1.0, True], [NAN, 0.5]], "op"),
        "op: True is not a number"),
    "matrix-ragged-and-string": (
        lambda: serialize.matrix_from_json([[1, 2, 3], ["x", 4]], "op"),
        "op: 'x' is not a number"),
    "matrix-bad-pair-then-string": (
        lambda: serialize.matrix_from_json([[[1, 2, 3], "x"]], "op"),
        "op: complex entries must be numbers or [re, im] pairs"),
    "matrix-row-not-a-list": (
        lambda: serialize.matrix_from_json([[1, 2], "ab", [None]], "op"),
        "op: expected a list, got str"),
    "frame-bool-then-nan": (
        lambda: frame_from_json({"dim": 2, "field": "R",
                                 "vectors": [[1.0, True], [NAN, 0.0]]}),
        "frame vector 0: True is not a number"),
    "frame-ragged-and-string": (
        lambda: frame_from_json({"dim": 2, "field": "C",
                                 "vectors": [[1, 2, 3], ["x"]]}),
        "frame vector 1: 'x' is not a number"),
    "frame-pair-in-a-real-field": (
        lambda: frame_from_json({"dim": 1, "field": "R",
                                 "vectors": [[1.0], [[1.0, 0.0]]]}),
        "frame vector 1: [1.0, 0.0] is not a number"),
    "frame-length-then-nan": (
        lambda: frame_from_json({"dim": 2, "field": "R",
                                 "vectors": [[1.0], [NAN, 0.0]]}),
        "frame vector 1: nan is not a number"),
    "povm-bool-then-nan": (
        lambda: povm_from_json({"dim": 2, "effects": [
            [[0.5, True], [0, 0.5]], [[NAN, 0], [0, 0.5]]]}),
        "effect 0: True is not a number"),
    "povm-ragged-then-string": (
        lambda: povm_from_json({"dim": 2, "effects": [
            [[1, 0], [0]], [["x", 0], [0, 1]]]}),
        "effect 0: ragged rows"),
    "povm-shape-then-string": (
        lambda: povm_from_json({"dim": 2, "effects": [
            [[1, 0, 0], [0, 1, 0]], [["x", 0], [0, 1]]]}),
        "effect 0 has shape (2, 3), expected (2, 2)"),
    "sequence-bool-then-nan": (
        lambda: sequence_from_json({"length": 2, "entries": [False, NAN]}),
        "sequence entries: False is not a number"),
    "sequence-huge-then-bool": (
        lambda: sequence_from_json({"length": 2,
                                    "entries": [[0, 10**400], True]}),
        "sequence entries: an integer beyond the float range is not a "
        "number"),
    "sequence-mixed-pair-of-lists": (
        lambda: sequence_from_json({"length": 2,
                                    "entries": [1, [[1], [2]]]}),
        "sequence entries: [1] is not a number"),
    "sequence-mixed-long-pair": (
        lambda: sequence_from_json({"length": 2, "entries": [1, [1, 2, 3]]}),
        "sequence entries: complex entries must be numbers or [re, im] "
        "pairs"),
    "numpy-int": (
        lambda: sequence_from_json({"length": 2,
                                    "entries": [np.float64(0.5),
                                                np.int64(1)]}),
        "sequence entries: np.int64(1) is not a number"),
}


@pytest.mark.parametrize("name", sorted(FIRST_DEFECTS))
def test_readers_name_the_first_defect(name):
    read, message = FIRST_DEFECTS[name]
    with pytest.raises(fl.InputError) as info:
        read()
    assert str(info.value) == message


def nested(depth):
    """1.0 inside ``depth`` lists."""
    item = 1.0
    for _ in range(depth):
        item = [item]
    return item


# Each reader on an array that nests ``depth`` lists deep.
DEEP_READERS = {
    "frame": lambda a: frame_from_json({"dim": 1, "field": "C",
                                        "vectors": a}),
    "povm": lambda a: povm_from_json({"dim": 1, "effects": a}),
    "sequence": lambda a: sequence_from_json({"length": 1, "entries": a}),
    "matrix": lambda a: serialize.matrix_from_json(a, "op"),
}


@pytest.mark.parametrize("depth", [33, 64])
@pytest.mark.parametrize("reader", sorted(DEEP_READERS))
def test_readers_name_nesting_past_numpys_axis_limit(reader, depth):
    # NumPy's flat iterator takes at most 32 axes; the walk names the
    # defect instead.
    with pytest.raises(fl.InputError):
        DEEP_READERS[reader](nested(depth))


def test_readers_take_bare_paired_and_mixed_complex_entries():
    u = sequence_from_json({"length": 4,
                            "entries": [1, [0, -1], 2.5, [-0.0, 3]]})
    assert u.dtype == np.complex128
    assert u.tolist() == [1, -1j, 2.5, complex(-0.0, 3)]
    assert np.signbit(u.real).tolist() == [False, False, False, True]
    assert np.signbit(u.imag).tolist() == [False, True, False, False]
    m = serialize.matrix_from_json([[1, [0, 1]], [[0, -1], 2]], "op")
    assert m.tolist() == [[1, 1j], [-1j, 2]]
    bare = serialize.matrix_from_json([[1, 0], [0, 2]], "op")
    paired = serialize.matrix_from_json([[[1, 0], [0, 0]],
                                         [[0, 0], [2, 0]]], "op")
    assert bare.tobytes() == paired.tobytes()
    # one effect bare, one paired, one mixed
    p = povm_from_json({"dim": 2, "effects": [
        [[0.5, 0], [0, 0.25]],
        [[[0.25, 0], [0, 0.125]], [[0, -0.125], [0.5, 0]]],
        [[0.25, [0, -0.125]], [[0, 0.125], 0.25]]]})
    assert p.effects.tolist() == [
        [[0.5, 0], [0, 0.25]], [[0.25, 0.125j], [-0.125j, 0.5]],
        [[0.25, -0.125j], [0.125j, 0.25]]]
    fl.check_povm(p)
    # NumPy float leaves are floats; a real field reads them as they are
    f = frame_from_json({"dim": 2, "field": "R",
                         "vectors": [[np.float64(0.5), 1], [2, -0.0]]})
    assert f.vectors.dtype == np.float64
    assert f.vectors.tolist() == [[0.5, 1.0], [2.0, 0.0]]
    assert np.signbit(f.vectors[1, 1])


# Each loader's required keys, in the order it checks them.
REQUIRED_KEYS = {"frame": ("dim", "field", "vectors"),
                 "povm": ("dim", "effects"),
                 "sequence": ("length", "entries")}


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_loaders_name_a_missing_object_or_key(kind):
    load = LOADERS[kind]
    for bad in ([], "x", None, 1.0):
        with pytest.raises(fl.InputError,
                           match=f"^{kind}: expected a JSON object$"):
            load(bad)
    keys = REQUIRED_KEYS[kind]
    for key in keys:
        obj = {k: None for k in keys if k != key}
        with pytest.raises(fl.InputError,
                           match=f"^{kind}: missing key '{key}'$"):
            load(obj)
    with pytest.raises(fl.InputError, match=f"missing key '{keys[0]}'$"):
        load({})


def _peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_emitter_memory_is_bounded_by_the_text(tmp_path):
    # Sixteen units of complex rows, all distinct, and the Gabor frames
    # of p = 43 (five units) and p = 67 (19), whose entries repeat:
    # canonical_json holds the pieces and their join (2x the text),
    # write_json only the pieces and one unit in flight.
    for a in (fl.SplitMix64(17).complex_gaussians((B // 2, 8)),
              fl.gabor_frame(fl.bjorck(43)).vectors,
              fl.gabor_frame(fl.bjorck(67)).vectors):
        text = canonical_json(a)
        n = len(text)
        del text
        assert _peak(lambda: canonical_json(a)) <= 2.2 * n
        path = tmp_path / "a.json"
        assert _peak(lambda: write_json(path, a)) <= 1.4 * n
        assert path.read_text() == canonical_json(a) + "\n"


def test_each_distinct_entry_is_formatted_once_per_array(monkeypatch):
    # Each unit formats only the entries the unit before did not hold:
    # the p = 67 Gabor frame, 300,763 entries in 19 units, takes one
    # format per distinct entry, and an array of distinct entries one
    # per entry.
    formatted = []
    cell_texts = serialize._cell_texts

    def counted(entries):
        formatted.append(entries.size)
        return cell_texts(entries)

    monkeypatch.setattr(serialize, "_cell_texts", counted)
    gabor = fl.gabor_frame(fl.bjorck(67)).vectors
    distinct = fl.SplitMix64(17).complex_gaussians((B // 2, 8))
    for a, formats in ((gabor, 2638), (distinct, distinct.size)):
        formatted.clear()
        canonical_json(a)
        assert np.unique(a + 0.0).size == formats
        assert sum(formatted) == formats


def _colliding_entries():
    # [1, 0.5] and [2, im2] with equal keys.  A complex key is the mixed
    # bits of the real part XORed with the bits of the imaginary part,
    # so im2 = -6.3174680710424494e-176 undoes the change of real part:
    # its bits are the key of [1, 0.5] XOR the key of [2, 0].
    z1 = complex(1.0, 0.5)
    keys = serialize._entry_keys(np.array([z1, 2.0]))
    z2 = complex(2.0, (keys[:1] ^ keys[1:]).view(np.float64)[0])
    assert np.unique(serialize._entry_keys(np.array([z1, z2]))).size == 1
    return z1, z2


@pytest.mark.parametrize("first", [0, 1])
def test_entries_whose_keys_collide_keep_their_own_text(first, tmp_path):
    # Two entries with one key, in one unit and in two units, where
    # the second unit finds the other entry under its key in the carry.
    z = _colliding_entries()
    one_unit = np.array([z[first], z[1 - first], z[first], 3.0, z[1 - first]])
    rows = _rows_per_unit(1, np.complex128)
    two_units = np.full((2 * rows, 1), z[first])
    two_units[rows:-1] = z[1 - first]
    path = tmp_path / "a.json"
    for a in (one_unit, two_units):
        text = canonical_json(a)
        assert text == _entrywise(a)
        write_json(path, a)
        assert path.read_text() == text + "\n"


def test_ambiguity_csv_follows_fmt_float():
    table = fl.ambiguity(fl.bjorck(7))
    rows = [",".join(fmt_float(x) for x in row) for row in table.magnitudes()]
    assert ambiguity_to_csv(table) == "\n".join(rows) + "\n"


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_golden_bytes():
    # SHA-256 of four canonical outputs; any change to their bytes
    # shows here.
    u = fl.bjorck(13)
    grouped = fl.povm_from_frame_grouped(
        fl.random_parseval(4, 7, seed=3), [[0, 1, 2], [3, 4], [5, 6]]
    )
    assert _sha(canonical_json(frame_to_json(fl.gabor_frame(u)))) == (
        "fc2e590f1d37a35f351f50333aae96a03a01d2117ac1e1d4573134f139978185")
    assert _sha(canonical_json(povm_to_json(grouped))) == (
        "7468988189a824cc21c894948619f02a203b56ad30e8044e8543cadd3aa4dfd4")
    assert _sha(canonical_json(sequence_to_json(u))) == (
        "6ad1bbbcce7fc95287fc72acd7e66fd121f4dfda6d64da653f67d28264780804")
    assert _sha(ambiguity_to_csv(fl.ambiguity(u))) == (
        "3f0732328d9b8f29fb0032e983ec448b3a971234bd81c5e76b6d5a2752015e8d")


def test_report_golden_bytes():
    # SHA-256 of the verifier and fitter reports at d = 2, 3, 4: a real
    # and a complex quadratic form and expnorm, plus the cos(6 t) fit.
    # Any change to how frame sums are evaluated or added shows here.
    functions = {
        2: fl.quadratic_gleason(fl.random_hermitian(2, seed=2, field="R")),
        3: fl.quadratic_gleason(fl.random_hermitian(3, seed=3, field="C")),
        4: fl.expnorm_gleason(4, field="C"),
    }
    texts = []
    for d, g in functions.items():
        onb = fl.verify_onb_gleason(g, trials=8, seed=d)
        par = fl.verify_parseval_gleason(g, d + 2, trials=8, seed=d)
        texts.append(canonical_json(verification_report_to_json(onb)))
        texts.append(canonical_json(verification_report_to_json(par)))
    fit = fl.fit_quadratic(fl.cos_counterexample(6), samples=64, seed=1)
    texts.append(canonical_json(fit_result_to_json(fit)))
    assert _sha("\n".join(texts)) == (
        "6acf856897cb83d1858263add76c55394e44a69b069bd2fedd7458438b899c0c")


def _not_a_measure(e):
    # Squaring the trace rule of I/2 keeps v(I) = 1 and the range but
    # breaks additivity, so the check keeps a POVM witness.
    return (float(np.trace(e).real) / 2.0) ** 2


# One small instance of every report type.
REPORTS = {
    "FrameReport": lambda: fl.analyze_frame(fl.simplex_etf(3)),
    "VerificationReport": lambda: fl.verify_parseval_gleason(
        fl.cos_counterexample(6), 3, trials=4, seed=1),
    "FitResult": lambda: fl.fit_quadratic(
        fl.cos_counterexample(6), samples=40, seed=1),
    "ScalingReport": lambda: fl.homogeneity_check(
        fl.expnorm_gleason(2), samples=20, seed=1),
    "LadderReport": lambda: fl.degree_ladder_experiment(
        fl.quadratic_gleason(np.eye(2)), 4, 5, trials=3),
    "WeightTraceReport": lambda: fl.weight_trace_experiment(2, 3, trials=3),
    "CounterexampleReport": lambda: fl.counterexample_battery(
        fl.epsilon_1d_counterexample(0.2), trials=4, samples=40),
    "MeasureCheckReport": lambda: fl.check_generalized_measure(
        _not_a_measure, 2, 4, trials=3, seed=1),
    "PovmReport": lambda: fl.analyze_povm(
        fl.povm_from_frame(fl.standard_onb(2, "C"))),
    "BuschReport": lambda: fl.busch_experiment(2, states=2, trials=2),
    "BornReport": lambda: fl.born_experiment(2, trials=3),
    "CazacReport": lambda: fl.is_cazac(fl.bjorck(7)),
    "GaborReport": lambda: fl.analyze_gabor(fl.bjorck(7))[1],
}


def test_every_exported_report_type_is_covered():
    assert sorted(REPORTS) == sorted(
        name for name in fl.__all__
        if name.endswith("Report") or name == "FitResult")


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_is_an_immutable_record_the_emitter_writes(name):
    r = REPORTS[name]()
    assert type(r) is getattr(fl, name)
    with pytest.raises(AttributeError):
        setattr(r, r._fields[0], None)
    assert list(r._asdict()) == list(r._fields)
    assert canonical_json(r) == canonical_json(flat_report_to_json(r))


def test_emitter_writes_frames_and_povms_by_their_writers():
    f = fl.random_parseval(2, 3, seed=1)
    p = fl.povm_from_frame_grouped(f, [[0, 1], [2]])
    assert canonical_json(f) == canonical_json(frame_to_json(f))
    assert canonical_json(p) == canonical_json(povm_to_json(p))
    # Nested in a report, at the depth the report puts them.
    m = REPORTS["MeasureCheckReport"]()
    assert isinstance(m.witness, fl.Povm)
    assert canonical_json(m) == canonical_json(
        {**m._asdict(), "witness": povm_to_json(m.witness)})


def test_witness_unpacks_into_its_frame_and_sum():
    r = REPORTS["VerificationReport"]()
    for w in (r.witness_low, r.witness_high):
        assert isinstance(w, fl.Witness)
        frame, total = w
        assert frame is w.frame and total == w.sum
        assert isinstance(frame, fl.Frame)
        assert canonical_json(w) == canonical_json(
            {"frame": frame_to_json(frame), "sum": total})


# Objects whose only fault is a dimension, length or partition entry
# that is no integer; `true` loaded as 1 before the integer rule.
NOT_INTEGERS = {
    "frame-dim-true": {"dim": True, "field": "R", "vectors": [[1.0]]},
    "frame-dim-half": {"dim": 1.5, "field": "R", "vectors": [[1.0]]},
    "povm-dim-true": {"dim": True, "effects": [[[1.0]]]},
    "povm-partition-true": {"dim": 1, "effects": [[[1.0]]],
                            "partition": [[True]]},
    "povm-partition-half": {"dim": 1, "effects": [[[1.0]]],
                            "partition": [[0.5]]},
    "sequence-length-true": {"length": True, "entries": [1.0]},
    "sequence-length-string": {"length": "1", "entries": [1.0]},
}


@pytest.mark.parametrize("name", sorted(NOT_INTEGERS))
def test_loaders_apply_the_integer_rule(name):
    obj = NOT_INTEGERS[name]
    with pytest.raises(fl.InputError, match="must be an integer, got "):
        LOADERS[fl.sniff_kind(obj)](obj)


def test_loaders_take_integral_floats_as_integers():
    f = frame_from_json({"dim": 2.0, "field": "R", "vectors": [[1, 0.5]]})
    assert f.dim == 2
    p = povm_from_json({"dim": 1.0, "effects": [[[0.5]], [[0.5]]],
                        "partition": [[0.0], [1.0]]})
    assert p.partition == [[0], [1]]
    assert sequence_from_json({"length": 1.0, "entries": [1]}).tolist() == [1]
    with pytest.raises(fl.InputError, match="^frame: dimension must be at "):
        frame_from_json({"dim": 0, "field": "R", "vectors": [[]]})
    with pytest.raises(fl.InputError, match="^field must be 'R' or 'C'"):
        frame_from_json({"dim": 1, "field": "X", "vectors": [[1.0]]})
