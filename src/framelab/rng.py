"""Deterministic random number generation.

All randomized routines in the package draw from :class:`SplitMix64`
seeded with a caller-supplied integer, so identical seeds reproduce
identical results on every platform.  SplitMix64 is counter-based:
word k after state s is mix(s + k * gamma) (Steele, Lea and Flood,
OOPSLA 2014), so its words are hashed ahead of use, in blocks, by one
hash rule (:func:`_fill`) in exact uint64 NumPy arithmetic.  A
generator reads one word off its block in :meth:`SplitMix64.u64`, and
every multi-word draw reads through :meth:`SplitMix64._take`; one fill
serves a pass of a stack of generators that each draw one block of
Gaussians (:func:`_field_blocks`).  Gaussian variates come from the
Box-Muller transform applied to those words; complex Gaussians are
standard circular ones with unit total variance.  Every Gaussian, real
or complex, comes from one private loop (:func:`_box_muller`), so the
transform is written once; the second normal of a pair is cached as
the generator's spare for its next draw.  A sampler that draws a
direction and then a few uniforms per sample takes them all from one
planned run of the stream (:meth:`SplitMix64._run`): the words are
laid out, hashed in blocks and transformed once, with the bits, spare
and end state of the draws made one by one.

The package's integer and field rules live here too, in its lowest
module.  Integer rule (:func:`_integer`): a count, index or seed a
caller passes is a Python int (not a bool), a NumPy integer or a
finite integral float, and becomes a Python int; anything else, or a
count below its own floor, is an :class:`InputError`; a draw's shape
is one count or a tuple of counts under it with floor 0.  Number rule
(:func:`_finite`): a real number a caller passes, such as a tolerance
or a constant, is a :class:`numbers.Real` that is not a bool (a Python
int, float or fraction, or a NumPy integer or float) and is finite; it
becomes a float, and anything else, a numeric string among them, is
an :class:`InputError`.  Field rule (:func:`_check_field`): a field is
"R" or "C".
"""

from __future__ import annotations

import math
import numbers
from typing import Callable, Sequence

import numpy as np

from .errors import InputError

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
# A fill hashes at least _FILL_MIN words and at most _FILL_MAX, so a
# long draw holds one bounded block of words at a time; _STEPS[i] is
# (i + 1) * gamma mod 2^64.  A stacked draw fills _STACK_PASS
# generators per pass, so a tall stack holds one pass of blocks.
_FILL_MIN = 64
_FILL_MAX = 1024
_STACK_PASS = 64
_STEPS = np.arange(1, _FILL_MAX + 1, dtype=np.uint64) * np.uint64(_GAMMA)
_TWO_PI = 2.0 * math.pi
_ULP = 2.0 ** -53
_ROOT2 = math.sqrt(2.0)
# (im * 0.0, -(re * 0.0)) of CPython's complex-by-float division
_ZERO_PRODUCTS = np.array([0.0, -0.0])
_NO_TRIAL = "need at least one trial"


def _integer(x, name: str, floor: int | None = None, below: str = "") -> int:
    # The integer rule.  ``name`` is the subject of its messages, and
    # ``below`` overrides the one for a value under ``floor``.
    if type(x) is not int:  # an exact int, such as most seeds, skips this
        if isinstance(x, bool) or not (
            isinstance(x, (int, np.integer))
            or isinstance(x, (float, np.floating)) and float(x).is_integer()
        ):
            raise InputError(f"{name} must be an integer, got {x!r}")
        x = int(x)
    if floor is not None and x < floor:
        raise InputError(below or f"{name} must be at least {floor}")
    return x


def _finite(x, name: str, message: str = "") -> float:
    # The number rule.  ``name`` is the subject of its message, and
    # ``message`` overrides it.
    if type(x) is not float:  # an exact float, as most are, skips this
        if isinstance(x, bool) or not isinstance(x, numbers.Real):
            raise InputError(message or f"{name} must be a number, got {x!r}")
        try:
            x = float(x)
        except OverflowError:
            x = math.inf
    if not math.isfinite(x):
        raise InputError(message or f"{name} must be finite, got {x!r}")
    return x


def _draw_array(shape, dtype) -> np.ndarray:
    # The empty output of a draw, formed before any variate is drawn so
    # that NumPy refuses a size it cannot hold at once.
    if isinstance(shape, (tuple, list)):
        dims = tuple([_integer(n, "shape entry", 0) for n in shape])
    else:
        dims = _integer(shape, "shape entry", 0)
    try:
        return np.empty(dims, dtype)
    except (ValueError, MemoryError):
        raise InputError(f"a draw of shape {dims} is too large") from None


def _check_field(field) -> None:
    if field not in ("R", "C"):
        raise InputError(f"field must be 'R' or 'C', got {field!r}")


def _fill(rngs: Sequence[SplitMix64], count: int) -> None:
    # The hash rule: make each generator hold at least
    # min(count, _FILL_MAX) unread words.  Those that hold fewer get a
    # new block from their current states, all in one uint64 pass; the
    # unread rest of an old block is dropped and hashed again, so no
    # fill changes the stream.
    count = min(count, _FILL_MAX)
    short = [rng for rng in rngs if len(rng._words) - rng._read < count]
    if not short:
        return
    bases = [rng.state for rng in short]
    steps = _STEPS[:max(count, _FILL_MIN)]
    z = np.array(bases, dtype=np.uint64)[:, None] + steps
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    z ^= z >> 31
    for rng, base, words in zip(short, bases, z.tolist()):
        rng._base = base
        rng._words = words
        rng._read = 0


def _field_blocks(
    rngs: Sequence[SplitMix64], shape: tuple[int, ...], field: str
) -> np.ndarray:
    # Block t of the result is rngs[t].field_gaussians(shape, field).
    # The block's size check comes first, so that a block too large is
    # named as its own draw names it, then the stack's.  The generators
    # are then filled with a block's words _STACK_PASS at a time, one
    # hash pass each, and each drops its unread words after its block:
    # its state and spare are kept and the next draw hashes those words
    # again, so the stream is unchanged and the stack never holds more
    # than one pass of blocks.
    _check_field(field)
    dtype = np.complex128 if field == "C" else np.float64
    words = _draw_array(shape, dtype).size * (2 if field == "C" else 1) + 1
    out = _draw_array((len(rngs),) + shape, dtype)
    for start in range(0, len(rngs), _STACK_PASS):
        part = rngs[start:start + _STACK_PASS]
        _fill(part, words)
        for t, rng in enumerate(part, start):
            out[t] = rng.field_gaussians(shape, field)
            rng._base, rng._words, rng._read = rng.state, [], 0
    return out


def _box_muller(words: Sequence[int], out: list[float]) -> None:
    # The Box-Muller transform: each pair of words appends two normals
    # to out.  Every Gaussian of the package comes from this loop.
    pairs = iter(words)
    append = out.append
    for w1, w2 in zip(pairs, pairs):
        # Shift into (0, 1] so the log never sees zero.
        u1 = ((w1 >> 11) + 1) * _ULP
        u2 = (w2 >> 11) * _ULP
        radius = math.sqrt(-2.0 * math.log(u1))
        theta = _TWO_PI * u2
        append(radius * math.cos(theta))
        append(radius * math.sin(theta))


def _complex_parts(flat: np.ndarray) -> np.ndarray:
    # Pairs of normals in a float64 array become, in place, complex
    # normals with the bits of SplitMix64.complex_gaussians; returns
    # the complex view.
    parts = flat.reshape(-1, 2)
    parts += parts[:, ::-1] * _ZERO_PRODUCTS
    parts /= _ROOT2
    return flat.view(np.complex128)


class SplitMix64:
    """64-bit SplitMix generator with Box-Muller Gaussian output.

    Parameters
    ----------
    seed : int
        Any integer, by the integer rule; only the low 64 bits are kept.
    """

    # Word i of ``_words`` is the one after state _base + i * gamma, and
    # ``_read`` of them have been used.
    __slots__ = ("_base", "_words", "_read", "_spare")

    def __init__(self, seed: int):
        self._base = _integer(seed, "seed") & _MASK
        self._words: list[int] = []
        self._read = 0
        self._spare: float | None = None

    @property
    def state(self) -> int:
        """The counter: the seed plus gamma times the words used, mod 2^64."""
        return (self._base + self._read * _GAMMA) & _MASK

    def u64(self) -> int:
        """Next raw 64-bit word."""
        read = self._read
        if read == len(self._words):
            _fill((self,), 1)
            read = 0
        self._read = read + 1
        return self._words[read]

    def uniform(self) -> float:
        """Uniform double in [0, 1) with 53 random bits."""
        return (self.u64() >> 11) * _ULP

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) for 1 <= n <= 2**64; a larger bound
        raises :class:`InputError`. Bias is negligible for small n."""
        n = _integer(n, "bound", 1, "below() needs a positive bound")
        if n > 1 << 64:
            raise InputError(f"below() needs a bound <= 2**64, got {n}")
        return self.u64() % n

    def _normals(self, count: int) -> list[float]:
        # Words are read _FILL_MAX at a time, so a long draw holds one
        # bounded block of them.
        out: list[float] = []
        if self._spare is not None and count > 0:
            out.append(self._spare)
            self._spare = None
            count -= 1
        words = count + count % 2
        for start in range(0, words, _FILL_MAX):
            _box_muller(self._take(min(_FILL_MAX, words - start)), out)
        if count % 2:
            self._spare = out.pop()
        return out

    def _take(self, count: int) -> list[int]:
        # The next count words, and the generator moves past them: the
        # one reader of multi-word draws.  A block is read to its end
        # before _fill hashes the next.
        read = self._read
        words = self._words[read:read + count]
        self._read = read + len(words)
        while len(words) < count:
            _fill((self,), count - len(words))
            more = self._words[:count - len(words)]
            self._read = len(more)
            words += more
        return words

    def _run(
        self,
        width: int,
        uniforms: Sequence[int],
        keep: Callable[[list[float]], int],
    ) -> list[float]:
        # Steps that each draw width >= 1 normals, as _normals(width)
        # does, and then uniforms[i] uniforms, as uniform() does, from
        # one planned run of the stream: the bits, and the state and
        # spare after the run, are those of the steps taken one by one.
        # keep is handed the normals of the steps left, in step order,
        # and returns how many leading steps it keeps; the next step is
        # then drawn again from where its normals end, before its
        # uniforms, and the run goes on from there.  Returns the kept
        # steps' uniforms in order.
        draws: list[float] = []
        while uniforms:
            # Plan: where each step's pair words and uniform words end,
            # and whether a spare is held after its normals.
            start, spare = self.state, self._spare
            held = spare is not None
            plan, total = [], 0
            for u in uniforms:
                pairs = (width - held + 1) // 2
                held = 2 * pairs + held > width
                total += 2 * pairs
                plan.append((total, total + u, held))
                total += u
            words = self._take(total)
            pair_words: list[int] = []
            uniform_words: list[int] = []
            at = 0
            for paired, drawn, _ in plan:
                pair_words += words[at:paired]
                uniform_words += words[paired:drawn]
                at = drawn
            normals = [] if spare is None else [spare]
            _box_muller(pair_words, normals)
            kept = keep(normals[:len(uniforms) * width])
            last = min(kept, len(uniforms) - 1)
            paired, _, held = plan[last]
            self._spare = normals[(last + 1) * width] if held else None
            done = sum(uniforms[:kept])
            draws += [(w >> 11) * _ULP for w in uniform_words[:done]]
            if kept == len(uniforms):
                return draws
            # Redraw: back to the end of the refused step's normals.
            self._base = (start + paired * _GAMMA) & _MASK
            self._words, self._read = [], 0
            uniforms = uniforms[kept:]
        return draws

    def gaussians(self, shape: int | tuple[int, ...]) -> np.ndarray:
        """Array of independent standard normals, filled in C order."""
        out = _draw_array(shape, np.float64)
        out.ravel()[:] = self._normals(out.size)
        return out

    def complex_gaussians(self, shape: int | tuple[int, ...]) -> np.ndarray:
        """Array of standard circular complex normals (unit variance).

        Entry k has the bits of ``complex(re, im) / math.sqrt(2.0)``
        for normals 2k and 2k + 1.  CPython computes that quotient as
        ``((re + im * 0.0) / root2, (im - re * 0.0) / root2)``, one
        correctly rounded division per part, so the same steps on the
        float parts as one array give the same bits.  The zero products
        only set the signs of the zero parts that radius -0.0 (``u1``
        exactly 1) yields.
        """
        out = _draw_array(shape, np.complex128)
        flat = out.ravel().view(np.float64)
        flat[:] = self._normals(flat.size)
        _complex_parts(flat)
        return out

    def field_gaussians(self, shape, field: str) -> np.ndarray:
        """:meth:`gaussians` for field "R", :meth:`complex_gaussians`
        for "C"; another field raises :class:`InputError`."""
        _check_field(field)
        if field == "R":
            return self.gaussians(shape)
        return self.complex_gaussians(shape)
