"""Deterministic random number generation.

All randomized routines in the package draw from :class:`SplitMix64`
seeded with a caller-supplied integer, so identical seeds reproduce
identical results on every platform.  SplitMix64 is counter-based:
word k after state s is mix(s + k * gamma) (Steele, Lea and Flood,
OOPSLA 2014), so its words are hashed ahead of use, in blocks, by one
hash rule (:func:`_fill`) in exact uint64 NumPy arithmetic, and a
generator keeps its block as that uint64 array.  A generator reads one
word off its block, as a Python int, in :meth:`SplitMix64.u64`, and
every multi-word draw reads an array of words through
:meth:`SplitMix64._take`.  Normals are drawn as runs, one per
generator, straight into a draw's output or a stack's one array
(:func:`_normal_runs`, behind :func:`_field_runs`, after which a
stack's generators drop their unread words), in rounds of at most
_FILL_MAX normals a generator: one fill hashes a round's words and one
transform serves the whole round.  Gaussian variates come from
the Box-Muller transform applied to those words; complex Gaussians are
standard circular ones with unit total variance.  Every Gaussian, real
or complex, comes from one private whole-array transform
(:func:`_box_muller`), so the transform is written once: exact
uniforms, libm's log through ``math.log`` (NumPy's own log differs
from libm in the last bit on some inputs), and NumPy float64 sqrt,
cos, sin and products, which give libm's bits (a test checks them
against ``math``).  The second normal of a pair is cached as the
generator's spare for its next draw.  A sampler that draws a direction
and then a few uniforms per sample takes them all from one planned run
of the stream (:meth:`SplitMix64._run`): the words are laid out,
hashed in blocks, told apart by one mask and transformed once, with
the bits, spare and end state of the draws made one by one.  No Python
loop runs per word, per pair or per step.

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

import itertools
import math
import numbers
from typing import Callable, Sequence

import numpy as np

from .errors import InputError

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
# A fill hashes at least _FILL_MIN words and at most _FILL_MAX, so a
# long draw holds one bounded block of words at a time; _STEPS[i] is
# (i + 1) * gamma mod 2^64.
_FILL_MIN = 64
_FILL_MAX = 1024
_STEPS = np.arange(1, _FILL_MAX + 1, dtype=np.uint64) * np.uint64(_GAMMA)
_NO_WORDS = np.empty(0, np.uint64)
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
    for rng, base, words in zip(short, bases, z):
        rng._base = base
        rng._words = words
        rng._read = 0


def _field_runs(
    rngs: Sequence[SplitMix64], counts: Sequence[int], field: str
) -> np.ndarray:
    # rngs[t].field_gaussians(counts[t], field) for each t, one after
    # the other in one flat array, drawn by one _normal_runs.  Each
    # generator then drops its unread words: its state and spare are
    # kept and its next draw hashes those words again, so the stream is
    # unchanged and a stack holds no words between passes.
    _check_field(field)
    width = 2 if field == "C" else 1
    counts = [width * count for count in counts]
    normals = _draw_array(sum(counts), np.float64)
    _normal_runs(rngs, counts, normals)
    for rng in rngs:
        rng._base, rng._words, rng._read = rng.state, _NO_WORDS, 0
    return _complex_parts(normals) if field == "C" else normals


def _normal_runs(
    rngs: Sequence[SplitMix64], counts: Sequence[int], out: np.ndarray
) -> None:
    # The next counts[t] normals of each generator t, as its own draw
    # gives them, spare rule and all, written one run after the other
    # into the flat float64 array out.  The runs are drawn in rounds of
    # at most _FILL_MAX normals a generator, each round's words hashed
    # in one fill and sent through the transform together, so a long
    # run holds one bounded block of words per generator.
    ends = itertools.accumulate(counts)
    runs = [out[end - count:end] for end, count in zip(ends, counts)]
    for done in range(0, max(counts, default=0), _FILL_MAX):
        parts = [run[done:done + _FILL_MAX] for run in runs]
        _fill(rngs, max(map(len, parts)) + 1)
        takes, heads = [], []
        for rng, part in zip(rngs, parts):
            head = len(part) > 0 and rng._spare is not None
            need = len(part) - head
            takes.append(rng._take(need + need % 2))
            heads.append(head)
        normals = _box_muller(np.concatenate(takes))
        at = 0
        for rng, part, head, words in zip(rngs, parts, heads, takes):
            if len(part):
                if head:
                    part[0] = rng._spare
                end = at + len(part) - head
                part[head:] = normals[at:end]
                at += len(words)
                rng._spare = normals.item(end) if at > end else None


def _box_muller(words: np.ndarray) -> np.ndarray:
    # The Box-Muller transform: word pair i gives normals 2i and 2i + 1.
    # Every Gaussian of the package comes from here.  The uniforms are
    # exact, u1 shifted into (0, 1] so the log never sees zero.  The log
    # is libm's, one math.log per pair; sqrt, cos, sin and the products
    # are NumPy float64 ufuncs, which give libm's bits.
    u = (words >> 11) * _ULP
    u1 = u[0::2]
    u1 += _ULP
    radius = np.sqrt(-2.0 * np.array(list(map(math.log, u1.tolist()))))
    theta = _TWO_PI * u[1::2]
    out = np.empty(len(words))
    pairs = out.reshape(-1, 2)
    np.cos(theta, out=pairs[:, 0])
    np.sin(theta, out=pairs[:, 1])
    pairs *= radius[:, None]
    return out


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
        self._words = _NO_WORDS
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
        return self._words.item(read)

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

    def _take(self, count: int) -> np.ndarray:
        # The next count words, and the generator moves past them: the
        # one reader of multi-word draws.  A block is read to its end
        # before _fill hashes the next.
        read = self._read
        words = self._words[read:read + count]
        self._read = read + len(words)
        left = count - len(words)
        if not left:
            return words
        parts = [words]
        while left:
            _fill((self,), left)
            parts.append(self._words[:left])
            self._read = len(parts[-1])
            left -= self._read
        return np.concatenate(parts)

    def _run(
        self,
        width: int,
        uniforms: Sequence[int],
        keep: Callable[[np.ndarray], int],
    ) -> list[float]:
        # Steps that each draw width >= 1 normals, as gaussians(width)
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
            # Plan: step i holds a spare before its normals when held[i],
            # and after the last step when held[-1]; the spare flips at
            # each step when width is odd.  Step i draws its pair words,
            # which end at ends[2i], then its uniform words; one mask
            # over the taken words tells the two apart.
            start, spare = self.state, self._spare
            steps = len(uniforms)
            held = (np.arange(steps + 1) * (width % 2)
                    + (spare is not None)) % 2
            lengths = np.empty(2 * steps, np.int64)
            lengths[0::2] = (width + 1 - held[:-1]) // 2 * 2
            lengths[1::2] = uniforms
            ends = np.cumsum(lengths)
            words = self._take(int(ends[-1]))
            paired = np.repeat(np.arange(2 * steps) % 2 == 0, lengths)
            normals = _box_muller(words[paired])
            if spare is not None:
                normals = np.concatenate(([spare], normals))
            kept = keep(normals[:steps * width])
            last = min(kept, steps - 1)
            self._spare = (normals.item((last + 1) * width)
                           if held[last + 1] else None)
            done = sum(uniforms[:kept])
            draws += ((words[~paired][:done] >> 11) * _ULP).tolist()
            if kept == steps:
                return draws
            # Redraw: back to the end of the refused step's normals.
            self._base = (start + int(ends[2 * last]) * _GAMMA) & _MASK
            self._words, self._read = _NO_WORDS, 0
            uniforms = uniforms[kept:]
        return draws

    def gaussians(self, shape: int | tuple[int, ...]) -> np.ndarray:
        """Array of independent standard normals, filled in C order."""
        out = _draw_array(shape, np.float64)
        _normal_runs((self,), (out.size,), out.reshape(-1))
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
        flat = out.reshape(-1).view(np.float64)
        _normal_runs((self,), (flat.size,), flat)
        _complex_parts(flat)
        return out

    def field_gaussians(self, shape, field: str) -> np.ndarray:
        """:meth:`gaussians` for field "R", :meth:`complex_gaussians`
        for "C"; another field raises :class:`InputError`."""
        _check_field(field)
        if field == "R":
            return self.gaussians(shape)
        return self.complex_gaussians(shape)
