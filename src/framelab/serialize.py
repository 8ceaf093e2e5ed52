"""Canonical JSON and CSV serialization.

Serialization is byte-deterministic: identical values always produce
identical text.  The rules: object
keys are sorted, floats are rendered with 17 significant digits
(which round-trips float64 exactly), negative zero collapses to 0,
complex numbers become [re, im] pairs, and non-finite numbers are
rejected.  Files end with a single newline.

:func:`fmt_float` is the one float rule.  Float and complex arrays
follow it too, so the ``*_to_json`` writers hand arrays to the emitter
and the readers accept them back.  An array is emitted as one piece of
text per unit of whole rows of bounded size.  Each unit formats only
the distinct entries that the unit before it, in the same array, did
not hold, and joins every row from the gathered texts; so a Gabor
frame, whose p^3 entries take fewer than p^2 values, is formatted
once per value, not once per entry.  The emitter holds the text once
plus one unit's rows and piece: :func:`canonical_json` peaks at about
twice its text (the pieces and their join), and :func:`write_json`,
which writes the pieces, at about once plus one unit.

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
of :mod:`framelab.rng`, so ``2.0`` is 2 and ``true`` is rejected.
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


# 17 significant digits; applied to x + 0.0 so that -0.0 prints as 0.
_FLOAT = "%.17g"

# Float and complex arrays are emitted as one piece of text per unit of
# whole rows.  Beside the pieces, the emitter holds one unit's row texts,
# its distinct texts and, while it joins the rows, its piece, so a unit
# is half of _BLOCK_PARTS float parts (a complex entry has two): about
# 0.7 MB of text.  The rows of each 2-D slab are split into near-equal
# units, so no short last unit drops the texts the next unit needs: the
# 4,489 rows of a p = 67 Gabor frame go in 19 units of 236 or 237 rows,
# each holding nearly all of the frame's 2,638 distinct entries.
_BLOCK_PARTS = 2**16
_UNIT_PARTS = _BLOCK_PARTS // 2


def fmt_float(x: float) -> str:
    """Canonical text form of a float."""
    x = float(x)
    if not math.isfinite(x):
        raise InputError(f"cannot serialize non-finite number {x!r}")
    return _FLOAT % (x + 0.0)


def _float_rows(a: np.ndarray, carry: list, left: str = "[",
                right: str = "]", sep: str = ",") -> Iterator[str]:
    """Text of each unit of rows of a 1-D or 2-D float or complex array:
    its rows, each between ``left`` and ``right``, joined by ``sep``.

    Entries follow :func:`fmt_float`; complex entries become
    ``[re,im]`` pairs.  The rows are split into near-equal units of at
    most ``_UNIT_PARTS`` float parts.  ``carry`` holds the sorted
    distinct entries of the unit before, of this array or of an earlier
    slab of the same array, with their texts; an empty list starts an
    array.  A unit takes over those texts, formats only the entries the
    unit before did not hold and leaves its own in ``carry``, so an
    entry that recurs from unit to unit is formatted once per array.
    """
    rows = np.atleast_2d(a)
    row_parts = rows.shape[1] * (2 if np.iscomplexobj(rows) else 1)
    n = rows.shape[0]
    units = -(-n // max(1, _UNIT_PARTS // max(1, row_parts)))
    for j in range(units):
        yield sep.join(_unit_rows(rows[j * n // units:(j + 1) * n // units],
                                  carry, left, right))


def _unit_rows(rows: np.ndarray, carry: list, left: str,
               right: str) -> list[str]:
    # One unit of _float_rows.  One finite check covers every real and
    # imaginary part.  After + 0.0, equal entries have equal bits, so a
    # key is a whole entry, and a key the carry holds is found by
    # equality.  The unit's keys and texts replace the carry.
    kind = np.complex128 if np.iscomplexobj(rows) else np.float64
    rows = np.ascontiguousarray(rows, dtype=kind) + 0.0
    parts = rows.view(np.float64)
    finite = np.isfinite(parts)
    if not finite.all():
        bad = float(parts[~finite][0])
        raise InputError(f"cannot serialize non-finite number {bad!r}")
    keys, index = np.unique(rows, return_inverse=True)
    texts = np.empty(keys.size, dtype=object)
    old_keys, old_texts = carry or (keys[:0], texts[:0])
    carry.clear()
    at = np.searchsorted(old_keys, keys)
    known = at < old_keys.size
    known[known] = old_keys[at[known]] == keys[known]
    texts[known] = old_texts[at[known]]
    del old_texts  # free the texts this unit drops before it formats
    new = ~known
    texts[new] = _cell_texts(keys[new])
    carry[:] = keys, texts
    cells = texts[index.reshape(rows.shape)].tolist()
    return [left + ",".join(row) + right for row in cells]


def _cell_texts(keys: np.ndarray) -> np.ndarray:
    # The text of each key by the one cell rule: fmt_float of a float,
    # [re,im] of a complex entry.
    if keys.dtype.kind == "c":
        cell, columns = f"[{_FLOAT},{_FLOAT}]", (keys.real, keys.imag)
    else:
        cell, columns = _FLOAT, (keys,)
    return np.array([cell % p for p in zip(*(c.tolist() for c in columns))],
                    dtype=object)


def _emit_float_array(a: np.ndarray, out: list[str], carry: list) -> None:
    # One piece per unit of whole rows, so no more than one unit's row
    # texts and its piece are held beside the pieces; higher ranks
    # recurse on their leading axis with the same carry.
    if a.ndim == 1:
        out.extend(_float_rows(a, carry))
        return
    out.append("[")
    for i, item in enumerate(a if a.ndim > 2 else _float_rows(a, carry)):
        if i:
            out.append(",")
        if a.ndim > 2:
            _emit_float_array(item, out, carry)
        else:
            out.append(item)
    out.append("]")


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
    elif isinstance(obj, (float, np.floating)):
        out.append(fmt_float(float(obj)))
    elif isinstance(obj, (complex, np.complexfloating)):
        z = complex(obj)
        out.append(f"[{fmt_float(z.real)},{fmt_float(z.imag)}]")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, np.ndarray):
        if obj.ndim and obj.dtype.kind in "fc":
            _emit_float_array(obj, out, [])
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
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    return parse_json(text)


def parse_json(text: str):
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an over-long integer
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


def _number(x, what: str) -> float:
    # The one rule for a JSON number: an int or float that fits a
    # float64, not a bool (a subclass of int) nor NaN or Infinity.
    if (not isinstance(x, (int, float)) or isinstance(x, bool)
            or (isinstance(x, float) and not math.isfinite(x))):
        raise InputError(f"{what}: {x!r} is not a number")
    try:
        return float(x)
    except OverflowError:
        raise InputError(
            f"{what}: an integer beyond the float range is not a number"
        ) from None


def _vector_from_json(item, field: str, what: str) -> np.ndarray:
    if not isinstance(item, list):
        raise InputError(f"{what}: expected a list, got {type(item).__name__}")
    if field == "R":
        return np.array([_number(x, what) for x in item], dtype=np.float64)
    entries = []
    for x in item:
        if isinstance(x, list) and len(x) == 2:
            entries.append(complex(_number(x[0], what), _number(x[1], what)))
        elif isinstance(x, list):
            raise InputError(
                f"{what}: complex entries must be numbers or [re, im] pairs"
            )
        else:
            entries.append(complex(_number(x, what), 0.0))
    return np.array(entries, dtype=np.complex128)


def matrix_from_json(item, what: str) -> np.ndarray:
    item = _plain(item)
    if not isinstance(item, list) or not item:
        raise InputError(f"{what}: expected a nonempty list of rows")
    rows = [_vector_from_json(row, "C", what) for row in item]
    width = rows[0].shape[0]
    if any(r.shape[0] != width for r in rows):
        raise InputError(f"{what}: ragged rows")
    return np.array(rows, dtype=np.complex128)


# ---------------------------------------------------------------------------
# frames


def frame_to_json(f: Frame) -> dict:
    return {
        "dim": f.dim,
        "field": f.field,
        "vectors": f.vectors,
    }


def frame_from_json(obj) -> Frame:
    if not isinstance(obj, dict):
        raise InputError("frame: expected a JSON object")
    for key in ("dim", "field", "vectors"):
        if key not in obj:
            raise InputError(f"frame: missing key {key!r}")
    field = obj["field"]
    dim = _integer(obj["dim"], "frame: dimension", 1)
    vex = _plain(obj["vectors"])
    if not isinstance(vex, list) or not vex:
        raise InputError("frame: vectors must be a nonempty list")
    rows = [_vector_from_json(v, field, f"frame vector {i}") for i, v in enumerate(vex)]
    for i, r in enumerate(rows):
        if r.shape[0] != dim:
            raise InputError(
                f"frame vector {i} has length {r.shape[0]}, expected {dim}"
            )
    return Frame(np.array(rows), field)


# ---------------------------------------------------------------------------
# povms


def povm_to_json(p: Povm) -> dict:
    return {
        "dim": p.dim,
        "effects": p.effects,
        "partition": p.partition,
    }


def povm_from_json(obj) -> Povm:
    if not isinstance(obj, dict):
        raise InputError("povm: expected a JSON object")
    for key in ("dim", "effects"):
        if key not in obj:
            raise InputError(f"povm: missing key {key!r}")
    dim = _integer(obj["dim"], "povm: dimension", 1)
    effects_json = _plain(obj["effects"])
    if not isinstance(effects_json, list) or not effects_json:
        raise InputError("povm: effects must be a nonempty list")
    effects = []
    for j, e in enumerate(effects_json):
        mat = matrix_from_json(e, f"effect {j}")
        if mat.shape != (dim, dim):
            raise InputError(
                f"effect {j} has shape {mat.shape}, expected ({dim}, {dim})"
            )
        effects.append(mat)
    return Povm(np.array(effects), obj.get("partition"))


# ---------------------------------------------------------------------------
# sequences


def sequence_to_json(u: np.ndarray) -> dict:
    a = np.asarray(u, dtype=np.complex128)
    return {"length": int(a.shape[0]), "entries": a}


def sequence_from_json(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise InputError("sequence: expected a JSON object")
    for key in ("length", "entries"):
        if key not in obj:
            raise InputError(f"sequence: missing key {key!r}")
    length = _integer(obj["length"], "sequence: length", 1)
    entries = _vector_from_json(_plain(obj["entries"]), "C", "sequence entries")
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
    return "\n".join(_float_rows(table.magnitudes(), [], "", "", "\n")) + "\n"
