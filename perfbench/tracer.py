"""Span tracer that measures framelab's layers from outside.

``Tracer.install`` replaces every public function of each layer module
with a wrapper that records a span, at every place the function is
bound: its own module, the modules that copied it with ``from .x
import f``, and the ``framelab`` re-exports.  Three methods are wrapped
on their classes: ``SplitMix64.gaussians``, ``SplitMix64.complex_gaussians``
and ``GleasonFn.__call__``.  Private helpers (``_jacobi``, ``_emit``),
the per-number ``serialize.fmt_float`` and scalar draws
(``SplitMix64.u64``, ``gaussian``) are not wrapped, so their time
counts as self time of the public call around them.

Spans are kept in memory as ``[key, parent, job, start, end, amount]``
lists and written out by ``write``.  Spans are recorded only while
``recording`` is true, which the benchmark sets around each job.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from time import perf_counter

LAYERS = ("rng", "linalg", "frames", "povm", "gleason", "waveforms",
          "serialize", "cli")

METHODS = (
    ("rng", "SplitMix64", "gaussians"),
    ("rng", "SplitMix64", "complex_gaussians"),
    ("gleason", "GleasonFn", "__call__"),
)

# Work counted from a call's arguments or result, stored as the span's
# ``amount``.
METERS = {
    ("rng", "gaussians"): lambda args, res: res.size,
    ("rng", "complex_gaussians"): lambda args, res: res.size,
    ("linalg", "hermitian_eig"): lambda args, res: res.eigenvalues.shape[0],
    ("serialize", "canonical_json"): lambda args, res: len(res),
    ("serialize", "parse_json"): lambda args, res: len(args[0]),
}

GRAM_FUNCTIONS = ("coherence", "is_equiangular", "frame_potential")

# Public but called once per number by the JSON emitter: a span each
# would hold millions of spans per Gabor frame and multiply the
# emitter's time.  Its time is self time of the call around it.
UNWRAPPED = (("serialize", "fmt_float"),)


class Tracer:
    def __init__(self):
        self.keys: list[tuple[str, str]] = []
        self.spans: list[list] = []
        self.recording = False
        self.job = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, name: str, orig):
        key = len(self.keys)
        self.keys.append((layer, name))
        meter = METERS.get((layer, name))
        spans = self.spans
        stack = self._stack

        def wrapper(*args, **kwargs):
            if not self.recording:
                return orig(*args, **kwargs)
            rec = [key, stack[-1] if stack else -1, self.job, 0.0, 0.0, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[3] = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                rec[4] = perf_counter()
                stack.pop()
            if meter is not None:
                rec[5] = meter(args, result)
            return result

        wrapper.__name__ = getattr(orig, "__name__", name)
        wrapper.__qualname__ = getattr(orig, "__qualname__", name)
        wrapper.__doc__ = orig.__doc__
        wrapper.__wrapped__ = orig
        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every public layer function at all its binding sites."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        layer_mods = {
            layer: importlib.import_module(f"framelab.{layer}")
            for layer in LAYERS
        }
        wrappers = {}
        for layer, mod in layer_mods.items():
            for name, fn in inspect.getmembers(mod, inspect.isfunction):
                if (fn.__module__ == mod.__name__ and not name.startswith("_")
                        and (layer, name) not in UNWRAPPED):
                    wrappers[id(fn)] = (fn, self._wrap(layer, name, fn))
        sites = [m for n, m in sorted(sys.modules.items())
                 if n == "framelab" or n.startswith("framelab.")]
        for mod in sites:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(mod, attr, hit[1])
        for layer, cls_name, meth in METHODS:
            cls = getattr(layer_mods[layer], cls_name)
            orig = cls.__dict__[meth]
            self._set(cls, meth, self._wrap(layer, meth, orig))

    def uninstall(self) -> None:
        """Put back every original binding."""
        self.recording = False
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals over all recorded spans.

        Self time is a span's duration minus the durations of its
        direct children, which run one after another in this single
        thread and so never overlap.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[1] >= 0:
                child[rec[1]] += rec[4] - rec[3]
        self_s = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        by_name: dict[tuple[str, str], list[float]] = {}
        for i, rec in enumerate(spans):
            layer, name = self.keys[rec[0]]
            dur = rec[4] - rec[3]
            self_s[layer] += dur - child[i]
            calls[layer] += 1
            agg = by_name.setdefault((layer, name), [0, 0.0, 0])
            agg[0] += 1
            agg[1] += dur
            agg[2] += rec[5]

        def count(layer, *names):
            return sum(by_name.get((layer, n), (0, 0.0, 0))[0] for n in names)

        def amount(layer, *names):
            return sum(by_name.get((layer, n), (0, 0.0, 0))[2] for n in names)

        eig_calls = count("linalg", "hermitian_eig")
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s[layer]
            out[f"{layer}.calls"] = calls[layer]
        out["rng.variates"] = amount("rng", "gaussians", "complex_gaussians")
        out["linalg.eig_calls"] = eig_calls
        out["linalg.eig_mean_dim"] = (
            amount("linalg", "hermitian_eig") / eig_calls if eig_calls else 0.0)
        out["frames.gram_calls"] = count("frames", *GRAM_FUNCTIONS)
        out["povm.effect_checks"] = count("povm", "is_effect")
        out["gleason.point_evals"] = count("gleason", "__call__")
        out["waveforms.ambiguity_s"] = by_name.get(
            ("waveforms", "ambiguity"), (0, 0.0, 0))[1]
        out["serialize.bytes_out"] = amount("serialize", "canonical_json")
        out["serialize.bytes_in"] = amount("serialize", "parse_json")
        return out

    def write(self, path: str, meta: dict) -> None:
        """One JSON line of metadata, then one line per span:
        ``[id, parent, job, "layer.name", start_s, end_s, amount]``."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"meta": meta}, sort_keys=True) + "\n")
            for i, (key, parent, job, t0, t1, amt) in enumerate(self.spans):
                layer, name = self.keys[key]
                fh.write(json.dumps([i, parent, job, f"{layer}.{name}",
                                     t0, t1, amt]) + "\n")
