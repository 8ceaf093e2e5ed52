"""Canonical JSON and CSV serialization.

Serialization is byte-deterministic: identical values always produce
identical text.  The rules: object
keys are sorted, floats are rendered with 17 significant digits
(which round-trips float64 exactly), negative zero collapses to 0,
complex numbers become [re, im] pairs, and non-finite numbers are
rejected.  Files end with a single newline.

One cell rule (:func:`_finite_cells`, then :func:`_cell_texts`) forms
every float text, of arrays and of scalars, which :func:`fmt_float`
and the emitter make one-entry arrays, so the ``+ 0.0`` step, the
non-finite check and the text are written once.  The ``*_to_json``
writers hand arrays to the emitter and the readers accept them back.
An array is emitted as one piece of text per unit of whole rows of
bounded size, its rows along the last axis taken across every slab, so
the units of a stack of POVM effects cross from one effect to the
next.  A row's text is its entries joined by commas, and a unit joins
its rows by ``],[``, with the brackets that open and close the array
and its slabs put on the first and last row of each, so a slab
boundary reads ``]],[[``.  Each unit formats only the distinct entries
that the unit before it, in the same array, did not hold, and joins
every row from the gathered texts; so a Gabor frame, whose p^3 entries
take fewer than p^2 values, is formatted once per value, not once per
entry.  A unit groups its equal entries by sorting a 64-bit key of
each, which NumPy sorts far faster than complex values, and ends a
group wherever the sorted entry changes; a text is taken over from the
unit before only for an equal entry.  So two entries whose keys
collide cost one more format of a text, never the wrong text, and as
each entry takes its own group's text, the key order never reaches the
output.  The emitter holds the text once plus one unit's rows and
piece, as a unit is joined only once its arrays are freed and the
brackets go on its rows, not on the joined text:
:func:`canonical_json` peaks at about twice its text (the pieces and
their join), and :func:`write_json`, which writes the pieces, at about
once plus one unit.

Reports are immutable ``NamedTuple`` records that hold what is
emitted, and the emitter writes them by one rule: a record becomes the
object of its fields, a :class:`Frame` the object
:func:`frame_to_json` gives and a :class:`Povm` the one
:func:`povm_to_json` gives, at any depth.  So no report needs a writer
of its own.  :func:`flat_report_to_json` gives a record's fields as a
dict, to which a caller adds keys of its own; its aliases
``fit_result_to_json``, ``frame_report_to_json``,
``cazac_report_to_json``, ``measure_report_to_json`` and
``verification_report_to_json`` are kept for ``perfbench``, which
binds them by name.

The readers take a JSON number to be a finite int or float, never a
bool, a string, ``NaN`` or ``Infinity`` (which Python's ``json`` reads);
a complex entry is a bare number or an ``[re, im]`` pair.  A dimension,
length or partition entry is an integral number under the integer rule
of :mod:`framelab.rng`, so ``2.0`` is 2 and ``true`` is rejected.  Each
array is read whole, a POVM's effects as one stack: one conversion of
its nested lists to an object array, the number rule judged once over
the set of its leaf types, one float conversion, whose overflow is an
integer beyond the float range, and one finiteness check.  Only when
that fails does a reader walk the lists, to name the first defect in
reading order; nesting deeper than the array's axes is one, named by
the walk.  The readers are for the lists that ``json`` gives: a
tuple or an array nested in them may be read as a list.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from .errors import InputError
from .frames import Frame
from .povm import Povm
from .rng import _integer
from .waveforms import AmbiguityTable


# Float and complex arrays are emitted as one piece of text per unit of
# whole rows.  Beside the pieces, the emitter holds one unit's row texts,
# its distinct texts and, while it joins the rows, its piece, so a unit
# is half of _BLOCK_PARTS float parts (a complex entry has two): about
# 0.7 MB of text.  The rows of an array, across its slabs, are split
# into near-equal units, so no short last unit drops the texts the next
# unit needs: the 4,489 rows of a p = 67 Gabor frame go in 19 units of
# 236 or 237 rows, each holding nearly all of the frame's 2,638
# distinct entries.
_BLOCK_PARTS = 2**16
_UNIT_PARTS = _BLOCK_PARTS // 2


def fmt_float(x: float) -> str:
    """Canonical text form of a float."""
    return _scalar_text(float(x))


def _scalar_text(x) -> str:
    # A float or complex scalar by the cell rule, as a one-entry array.
    return _cell_texts(_finite_cells(np.array([x])))[0]


def _float_rows(a: np.ndarray, left: str = "[", right: str = "]",
                sep: str = ",") -> Iterator[str]:
    """Text of a nonempty float or complex array, one piece per unit of
    rows; the pieces joined with no separator are the array's text.

    Entries follow the cell rule: 17 digits, complex entries as
    ``[re,im]`` pairs.  The rows along the last axis, across all
    leading axes, are split into near-equal units of at most
    ``_UNIT_PARTS`` float parts.  The row rule joins a unit's rows by
    ``right + sep + left``; ``left`` is put on the first row of the
    unit and of each sub-array along a leading axis, the whole array
    included, ``right`` on the last, and ``sep`` after every unit but
    the last.  A unit is joined only after :func:`_unit_rows` has
    returned and freed its arrays, and the brackets go on its rows, not
    on the joined text, which would copy it.

    The carry holds the distinct entries of the unit before, in key
    order, with their texts.  A unit takes over those texts, formats
    only the entries the unit before did not hold and leaves its own in
    the carry, so an entry that recurs from unit to unit is formatted
    once per array.
    """
    rows = a.reshape(-1, a.shape[-1])
    # rows in each sub-array along a leading axis
    spans = [math.prod(a.shape[i:-1]) for i in range(a.ndim - 1)]
    row_parts = rows.shape[1] * (2 if np.iscomplexobj(rows) else 1)
    n = rows.shape[0]
    units = -(-n // max(1, _UNIT_PARTS // row_parts))
    carry: list = []
    for j in range(units):
        lo, hi = j * n // units, (j + 1) * n // units
        lines = _unit_rows(rows[lo:hi], carry)
        lines[0] = left + lines[0]
        lines[-1] += right
        for span in spans:
            for i in range(-lo % span, hi - lo, span):  # first rows
                lines[i] = left + lines[i]
            for i in range((-lo - 1) % span, hi - lo, span):  # last rows
                lines[i] += right
        if hi < n:
            lines[-1] += sep
        piece = (right + sep + left).join(lines)
        del lines  # not held while the next unit forms its rows
        yield piece


def _unit_rows(rows: np.ndarray, carry: list) -> list[str]:
    # One unit of _float_rows.  After _finite_cells, equal entries have
    # equal bits and so equal keys.  A group starts wherever the sorted
    # entry changes, and an entry the carry holds is found by its key
    # and taken over only if it is equal, so entries whose keys collide
    # at worst split a group and format one text twice.  The unit's
    # distinct entries, in key order, and their texts replace the carry;
    # its keys are recomputed, not kept, and the sort and lookup arrays
    # are freed before any text is formatted.  It returns the row texts,
    # bare: _float_rows puts on the brackets and joins them.
    rows = _finite_cells(rows)
    entries = rows.reshape(-1)
    keys = _entry_keys(entries)
    order = np.argsort(keys)
    entries = entries[order]
    starts = np.empty(entries.size, dtype=bool)
    starts[:1] = True
    np.not_equal(entries[1:], entries[:-1], out=starts[1:])
    index = np.empty(entries.size, dtype=np.intp)
    index[order] = np.cumsum(starts) - 1
    keys, entries = keys[order[starts]], entries[starts]
    del order, starts
    old_entries, old_texts = carry or (entries[:0], np.empty(0, dtype=object))
    carry.clear()
    at = np.searchsorted(_entry_keys(old_entries), keys)
    known = at < old_entries.size
    known[known] = old_entries[at[known]] == entries[known]
    del keys, old_entries  # free the sort and lookup before formatting
    texts = np.empty(entries.size, dtype=object)
    texts[known] = old_texts[at[known]]
    del old_texts, at  # and the carry's texts this unit drops
    new = ~known
    texts[new] = _cell_texts(entries[new])
    carry[:] = entries, texts
    cells = texts[index.reshape(rows.shape)].tolist()
    return list(map(",".join, cells))


_MIX = np.uint64(0xBF58476D1CE4E5B9)
_FOLD = np.uint64(31)


def _entry_keys(entries: np.ndarray) -> np.ndarray:
    # The 64-bit sort key of each entry of a contiguous 1-D float or
    # complex array.  A float is keyed by its bits.  A complex entry is
    # keyed by a bijective mix of its real part's bits (an odd
    # multiplier carries each bit upward, the shift folds the high half
    # back down) XORed with its imaginary part's bits, so [a, b] and
    # [b, a] do not share a key.  Equal entries have equal keys.  A
    # second mix would change the key order but not which entries share
    # a key, so there is none.
    bits = entries.view(np.uint64)
    if entries.dtype.kind != "c":
        return bits
    keys = bits[0::2] * _MIX
    keys ^= keys >> _FOLD
    keys ^= bits[1::2]
    return keys


def _finite_cells(a: np.ndarray) -> np.ndarray:
    # A float or complex array as a contiguous float64 or complex128
    # one plus 0.0, so that -0.0 reads 0 and equal entries have equal
    # bits, after one finite check over every real and imaginary part.
    kind = np.complex128 if np.iscomplexobj(a) else np.float64
    a = np.ascontiguousarray(a, dtype=kind) + 0.0
    parts = a.view(np.float64)
    finite = np.isfinite(parts)
    if not finite.all():
        bad = float(parts[~finite][0])
        raise InputError(f"cannot serialize non-finite number {bad!r}")
    return a


def _cell_texts(entries: np.ndarray) -> np.ndarray:
    # The text of each entry of a _finite_cells array by the one cell
    # rule: 17 significant digits of a float, [re,im] of a complex one.
    if entries.dtype.kind == "c":
        cell, columns = "[%.17g,%.17g]", (entries.real, entries.imag)
    else:
        cell, columns = "%.17g", (entries,)
    return np.array([cell % p for p in zip(*(c.tolist() for c in columns))],
                    dtype=object)


def _emit(obj, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, (np.bool_,)):
        _emit(bool(obj), out)
    elif isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating, complex, np.complexfloating)):
        out.append(_scalar_text(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, np.ndarray):
        if obj.size and obj.ndim and obj.dtype.kind in "fc":
            out.extend(_float_rows(obj))
        else:
            _emit(obj.tolist(), out)
    elif isinstance(obj, dict):
        out.append("{")
        first = True
        for key in sorted(obj.keys()):
            if not isinstance(key, str):
                raise InputError(f"JSON keys must be strings, got {key!r}")
            if not first:
                out.append(",")
            first = False
            out.append(json.dumps(key))
            out.append(":")
            _emit(obj[key], out)
        out.append("}")
    elif isinstance(obj, tuple) and hasattr(obj, "_asdict"):
        _emit(obj._asdict(), out)  # a record: the object of its fields
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _emit(item, out)
        out.append("]")
    elif isinstance(obj, Frame):
        _emit(frame_to_json(obj), out)
    elif isinstance(obj, Povm):
        _emit(povm_to_json(obj), out)
    else:
        raise InputError(f"cannot serialize object of type {type(obj).__name__}")


def canonical_json(obj) -> str:
    """Render ``obj`` as canonical JSON (no trailing newline)."""
    pieces: list[str] = []
    _emit(obj, pieces)
    return "".join(pieces)


def write_json(path, obj) -> None:
    """Write ``obj`` as canonical JSON and a newline.

    The pieces are written as emitted, with no joined copy of the
    text.  Emission finishes before the file is opened, so a value
    that cannot be serialized leaves no file and an existing one
    unchanged.
    """
    pieces: list[str] = []
    _emit(obj, pieces)
    pieces.append("\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(pieces)


def load_json(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    return parse_json(text)


def parse_json(text: str):
    try:
        return json.loads(text)
    # A JSONDecodeError, an over-long integer, or nesting deeper than
    # the decoder's recursion allows.
    except (ValueError, RecursionError) as exc:
        raise InputError(f"invalid JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# vectors and matrices


def _plain(item):
    """The JSON form of what a ``*_to_json`` writer returned: arrays
    become nested lists, complex entries [re, im] pairs."""
    if not isinstance(item, np.ndarray):
        return item
    if np.iscomplexobj(item):
        item = np.stack([item.real, item.imag], axis=-1)
    return item.tolist()


def _number_type(kind: type) -> bool:
    # The types of a JSON number: int, float and their subclasses, but
    # not bool (a subclass of int).
    return issubclass(kind, (int, float)) and not issubclass(kind, bool)


def _number(x, what: str) -> float:
    # The one rule for a JSON number: a value of a number type that fits
    # a float64, not NaN or Infinity.
    if (not _number_type(type(x))
            or (isinstance(x, float) and not math.isfinite(x))):
        raise InputError(f"{what}: {x!r} is not a number")
    try:
        return float(x)
    except OverflowError:
        raise InputError(
            f"{what}: an integer beyond the float range is not a number"
        ) from None


def _numbers(item, field: str, ndim: int) -> np.ndarray | None:
    # The number rule over a whole nested list of ``ndim`` axes, judged
    # once: one object conversion, the set of its leaf types, one float
    # conversion and one finiteness check.  For a field other than "R"
    # an entry is a number or an [re, im] pair, and bare numbers among
    # pairs become [x, 0.0].  Returns the float64 array (complex128 for
    # such a field), or None for any defect, which the caller's walk
    # names.  Nesting deeper than a pair is such a defect, and is refused
    # before ``flat``, which takes at most 32 axes.
    a = np.array(item, dtype=object)
    if a.ndim > ndim + 1:
        return None
    kinds = set(map(type, a.flat))
    if field != "R" and a.ndim == ndim and list in kinds:
        b = np.array([x if type(x) is list else [x, 0.0] for x in a.flat],
                     dtype=object)
        a = b.reshape(a.shape + b.shape[1:])
        kinds = set(map(type, a.flat))
    pairs = field != "R" and a.ndim == ndim + 1 and a.shape[-1] == 2
    if a.ndim != ndim + pairs or not all(map(_number_type, kinds)):
        return None
    try:
        x = a.astype(np.float64)
    except OverflowError:  # an integer beyond the float range
        return None
    if np.count_nonzero(np.isfinite(x)) != x.size:
        return None
    if pairs:
        return x.view(np.complex128)[..., 0]
    return x if field == "R" else x.astype(np.complex128)


def _vector_walk(item, field: str, what: str) -> None:
    # The defects of one vector in reading order, for a reader whose
    # _numbers failed: the first one raises, by the number rule of
    # _number and the pair rule.
    if not isinstance(item, list):
        raise InputError(f"{what}: expected a list, got {type(item).__name__}")
    for x in item:
        if field == "R" or not isinstance(x, list):
            _number(x, what)
        elif len(x) != 2:
            raise InputError(
                f"{what}: complex entries must be numbers or [re, im] pairs"
            )
        else:
            _number(x[0], what)
            _number(x[1], what)


def _require_keys(obj, kind: str, keys: tuple[str, ...]) -> None:
    # The preamble of every object reader: a JSON object holding the
    # kind's required keys, checked in order.
    if not isinstance(obj, dict):
        raise InputError(f"{kind}: expected a JSON object")
    for key in keys:
        if key not in obj:
            raise InputError(f"{kind}: missing key {key!r}")


def matrix_from_json(item, what: str) -> np.ndarray:
    item = _plain(item)
    if not isinstance(item, list) or not item:
        raise InputError(f"{what}: expected a nonempty list of rows")
    m = _numbers(item, "C", 2)
    if m is None:
        for row in item:
            _vector_walk(row, "C", what)
        raise InputError(f"{what}: ragged rows")
    return m


# ---------------------------------------------------------------------------
# frames


def frame_to_json(f: Frame) -> dict:
    return {
        "dim": f.dim,
        "field": f.field,
        "vectors": f.vectors,
    }


def frame_from_json(obj) -> Frame:
    _require_keys(obj, "frame", ("dim", "field", "vectors"))
    field = obj["field"]
    dim = _integer(obj["dim"], "frame: dimension", 1)
    vex = _plain(obj["vectors"])
    if not isinstance(vex, list) or not vex:
        raise InputError("frame: vectors must be a nonempty list")
    rows = _numbers(vex, field, 2)
    if rows is None or rows.shape[1] != dim:
        for i, v in enumerate(vex):
            _vector_walk(v, field, f"frame vector {i}")
        for i, v in enumerate(vex):
            if len(v) != dim:
                raise InputError(
                    f"frame vector {i} has length {len(v)}, expected {dim}"
                )
    return Frame(rows, field)


# ---------------------------------------------------------------------------
# povms


def povm_to_json(p: Povm) -> dict:
    return {
        "dim": p.dim,
        "effects": p.effects,
        "partition": p.partition,
    }


def povm_from_json(obj) -> Povm:
    _require_keys(obj, "povm", ("dim", "effects"))
    dim = _integer(obj["dim"], "povm: dimension", 1)
    effects_json = _plain(obj["effects"])
    if not isinstance(effects_json, list) or not effects_json:
        raise InputError("povm: effects must be a nonempty list")
    effects = _numbers(effects_json, "C", 3)
    if effects is None or effects.shape[1:] != (dim, dim):
        for j, e in enumerate(effects_json):
            mat = matrix_from_json(e, f"effect {j}")
            if mat.shape != (dim, dim):
                raise InputError(
                    f"effect {j} has shape {mat.shape}, "
                    f"expected ({dim}, {dim})"
                )
    return Povm(effects, obj.get("partition"))


# ---------------------------------------------------------------------------
# sequences


def sequence_to_json(u: np.ndarray) -> dict:
    a = np.asarray(u, dtype=np.complex128)
    return {"length": int(a.shape[0]), "entries": a}


def sequence_from_json(obj) -> np.ndarray:
    _require_keys(obj, "sequence", ("length", "entries"))
    length = _integer(obj["length"], "sequence: length", 1)
    item = _plain(obj["entries"])
    entries = _numbers(item, "C", 1)
    if entries is None:
        _vector_walk(item, "C", "sequence entries")
    if entries.shape[0] != length:
        raise InputError(
            f"sequence claims length {length} but has {entries.shape[0]} entries"
        )
    return entries


def sniff_kind(obj) -> str:
    """Classify a loaded JSON object as frame, povm, or sequence."""
    if isinstance(obj, dict):
        if "vectors" in obj:
            return "frame"
        if "effects" in obj:
            return "povm"
        if "entries" in obj:
            return "sequence"
    raise InputError("unrecognized JSON object (not a frame, povm, or sequence)")


# ---------------------------------------------------------------------------
# reports


def flat_report_to_json(r) -> dict:
    """JSON form of a report record: a new dict with one key per
    field, holding the field's value as it is, which the emitter writes
    as it writes the record itself.  Callers add keys of their own."""
    return r._asdict()


# Reports the emitter writes whole by its one rule, under the names
# their callers know.
fit_result_to_json = flat_report_to_json
frame_report_to_json = flat_report_to_json
cazac_report_to_json = flat_report_to_json
measure_report_to_json = flat_report_to_json
verification_report_to_json = flat_report_to_json


# ---------------------------------------------------------------------------
# csv


def ambiguity_to_csv(table: AmbiguityTable) -> str:
    """Magnitude grid as CSV, row m per line, columns n = 0..d-1."""
    return "".join(_float_rows(table.magnitudes(), "", "", "\n")) + "\n"
