"""Span tracer for the traced benchmark run.

The tracer wraps public functions of the ``ovq`` modules from outside. A
function is replaced in *every* ``ovq`` module namespace that holds it,
because ``bench`` and ``cli`` bind engine names with ``from .engine import
...`` and patching ``ovq.engine`` alone would miss their calls. A class
target (``HeadSequence``) gets its ``__init__`` wrapped instead, so its span
covers construction and validation.

Spans are kept in memory as (name, start, end, parent, run_id) tuples and
written out once the run ends. A target that no longer exists is listed in
``missing`` and simply yields no span.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time

import numpy as np

# (module, public name) pairs whose calls become spans. The span name is
# "<module>.<name>" with the redundant "ovq_" prefix dropped.
SPAN_TARGETS = (
    ("engine", "ovq_forward_sequence"),
    ("engine", "ovq_forward_chunk"),
    ("engine", "absorb_chunk"),
    ("engine", "select_new_centroids"),
    ("engine", "update_dictionary"),
    ("engine", "dictionary_readout"),
    ("state_io", "save_state"),
    ("state_io", "load_state"),
    ("tasks", "gen_basic_icr"),
    ("tasks", "save_streams"),
    ("tasks", "load_streams"),
    ("bench", "token_task_eval"),
    ("bench", "verify_all"),
    ("reference", "HeadSequence"),
    ("reference", "softmax_attention"),
    ("reference", "vq_attention_quadratic"),
    ("reference", "vq_attention_linear"),
    ("reference", "vq_attention_chunked"),
    ("gmr", "e_step"),
    ("gmr", "m_step"),
    ("gmr", "kmeanspp_indices"),
    ("gmr", "verify_gkr_attention"),
    ("gmr", "verify_newton_equivalence"),
    ("gmr", "gmr_predict"),
    ("cli", "main"),
)


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.removeprefix('ovq_')}"


SPAN_NAMES = tuple(span_name(m, a) for m, a in SPAN_TARGETS)
PACKAGE = "ovq"


def replace_everywhere(original, replacement) -> list:
    """Rebind every name in the loaded ``ovq`` modules that refers to
    ``original`` so it refers to ``replacement``. Returns undo entries."""
    undo = []
    modules = [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]
    for mod in modules:
        for key, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, key, replacement)
                undo.append((mod, key, original))
    return undo


def restore(undo: list) -> None:
    for obj, key, original in reversed(undo):
        setattr(obj, key, original)


class Tracer:
    """Collects spans for the calls it wraps while ``active`` is set.

    ``observers`` maps a span name to ``f(args, result)``, called after each
    traced call that returned, so counts are taken where the work happens.
    Single-threaded: the open-span stack assumes calls nest.
    """

    def __init__(self):
        self.observers: dict = {}
        self.spans: list = []
        self.missing: list[str] = []
        self.run_id: object = None
        self.active = False
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, name: str, fn):
        tracer = self
        observe = self.observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else -1
            idx = len(tracer.spans)
            tracer.spans.append(None)
            tracer._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[idx] = (name, start, end, parent, tracer.run_id)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def install(self) -> None:
        for (module, attr), name in zip(SPAN_TARGETS, SPAN_NAMES):
            try:
                target = getattr(importlib.import_module(f"{PACKAGE}.{module}"), attr, None)
            except ImportError:
                target = None
            if target is None:
                self.missing.append(name)
            elif isinstance(target, type):
                init = target.__init__
                target.__init__ = self._wrap(name, init)
                self._undo.append((target, "__init__", init))
            else:
                self._undo += replace_everywhere(target, self._wrap(name, target))
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        restore(self._undo)
        self._undo = []

    @contextlib.contextmanager
    def suspended(self):
        """Leave harness-side work (correctness checks) out of the trace."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def summary(self, weight=lambda run_id: 1.0) -> dict[str, dict[str, float]]:
        """Per span name: total ms, self ms (duration minus the time its
        child spans cover) and call count, each span scaled by
        ``weight(run_id)``. Calls nest in one thread, so children of one
        span never overlap and their durations add."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out = {name: {"ms": 0.0, "self_ms": 0.0, "calls": 0.0} for name in SPAN_NAMES}
        for (name, start, end, _, run_id), children in zip(self.spans, child_s):
            w = weight(run_id)
            agg = out[name]
            agg["ms"] += (end - start) * 1e3 * w
            agg["self_ms"] += (end - start - children) * 1e3 * w
            agg["calls"] += w
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, run_id in self.spans:
                span = {"name": name, "start": start, "end": end, "parent": parent, "run_id": run_id}
                f.write(json.dumps(span) + "\n")


class ChunkCounts:
    """Counts taken from the ``ChunkUpdateRecord``s the engine returns,
    kept apart for the traced set-up and the traced passes."""

    NAMES = ("tokens", "seeded", "flops", "bytes")

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.totals = {"setup": dict.fromkeys(self.NAMES, 0), "pass": dict.fromkeys(self.NAMES, 0)}
        self.fill = 0.0
        tracer.observers["engine.absorb_chunk"] = self.on_absorb
        tracer.observers["engine.forward_chunk"] = self.on_forward

    def _bucket(self) -> dict:
        return self.totals["setup" if self.tracer.run_id == "setup" else "pass"]

    def on_absorb(self, args, record) -> None:
        state = args[0]
        counts = self._bucket()
        counts["tokens"] += len(record.assignments)
        counts["seeded"] += len(record.new_centroid_positions)
        self.fill = state.n_active / state.config.n_max

    def on_forward(self, args, result) -> None:
        # Computed from shapes, not measured: the two products of predict
        # (q against dictionary and chunk keys, weights against values) at
        # 2 flops per multiply-add, and the bytes of its operands: active
        # dictionary rows and the q/k/v chunk in the engine dtype, plus the
        # float64 weight matrix and output.
        state, q = args[0], args[1]
        lc, d = q.shape
        n_active = state.n_active - len(result[1].new_centroid_positions)
        cols = n_active + lc
        item = np.dtype(state.config.dtype).itemsize
        counts = self._bucket()
        counts["flops"] += 4 * lc * cols * d
        counts["bytes"] += item * (2 * n_active + 3 * lc) * d + 8 * lc * (cols + d)
