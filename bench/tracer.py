"""Outside-in tracing of opdiv's layer boundaries.

The benchmark never edits the program. It replaces each function or
method listed in NUMPY_BOUNDARIES and OPDIV_BOUNDARIES with a wrapper,
in every opdiv module namespace that binds it (for example both
`opdiv.lab.loewner_compare` and `opdiv.hermitian.loewner_compare`), and
puts the originals back on `uninstall`.

A wrapper records only while `Tracer.active` is set, which the harness
does around the timed call of an operation, so inputs built before the
call are not counted. Span stacks and counters live in per-thread state:
self time stays correct under opdiv's trial thread pool, and counters
need no lock because each thread only adds to its own. The per-thread
counters are summed by `stats()` after the pool threads have ended.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time

import numpy as np

# (metric prefix, module, function name or tuple of class names). For a
# class tuple the wrapped attribute is the method the prefix ends with, or
# __init__ when the prefix names the class itself.
NUMPY_BOUNDARIES = (
    ("numpy.linalg.eigh", "numpy.linalg", "eigh"),
    ("numpy.linalg.eigvalsh", "numpy.linalg", "eigvalsh"),
)

OPDIV_BOUNDARIES = (
    ("cli.main", "opdiv.cli", "main"),
    ("lab.run_check", "opdiv.lab", "run_check"),
    ("hermitian.unitary_from_rng", "opdiv.hermitian", "unitary_from_rng"),
    ("hermitian.array_to_rows", "opdiv.hermitian", "array_to_rows"),
    ("posmap.to_json", "opdiv.posmap", ("Congruence", "Compression", "MapSum", "ScaledMap", "MapField")),
    ("hermitian.spectral_decompose", "opdiv.hermitian", "spectral_decompose"),
    ("hermitian.PositiveDefiniteMatrix", "opdiv.hermitian", ("PositiveDefiniteMatrix",)),
    ("hermitian.apply_function", "opdiv.hermitian", "apply_function"),
    ("hermitian.loewner_compare", "opdiv.hermitian", "loewner_compare"),
    ("hermitian.hermitian_part", "opdiv.hermitian", "hermitian_part"),
    ("funcatalog.eval_array", "opdiv.funcatalog", ("ScalarOperatorFunction",)),
    ("funcatalog.clamp_spectrum", "opdiv.funcatalog", ("Interval",)),
    ("perspective.perspective", "opdiv.perspective", "perspective"),
    ("perspective.theta_divergence", "opdiv.perspective", "theta_divergence"),
    ("perspective.f_delta_h", "opdiv.perspective", "f_delta_h"),
    ("perspective.f_nabla_h", "opdiv.perspective", "f_nabla_h"),
    ("perspective.gradient_lower_bound", "opdiv.perspective", "gradient_lower_bound"),
    ("perspective.bivariate_calculus", "opdiv.perspective", "bivariate_calculus"),
    ("posmap.apply", "opdiv.posmap", ("Congruence", "Compression", "MapSum", "ScaledMap")),
    ("norms.singular_values", "opdiv.norms", "singular_values"),
)

# Spans kept for the trace file; counters cover every call regardless.
SPAN_CAP = 50_000


def _method_name(prefix: str) -> str:
    leaf = prefix.rsplit(".", 1)[1]
    return "__init__" if leaf[0].isupper() else leaf


def _matrices(args) -> int:
    """Matrices in an eigensolver call: the product of the batch axes."""
    return int(np.prod(np.shape(args[0])[:-2], dtype=np.int64))


class _ThreadState:
    __slots__ = ("stack", "stats", "spans", "index")

    def __init__(self, index: int):
        self.stack = []
        self.stats = {}
        self.spans = []
        self.index = index


class Tracer:
    """Counts calls, matrices and self time per boundary; keeps spans.

    `boundaries` is NUMPY_BOUNDARIES alone for the eigensolver count, or
    NUMPY_BOUNDARIES + OPDIV_BOUNDARIES for the per-layer trace.
    """

    def __init__(self, boundaries, keep_spans: bool = False):
        self.boundaries = tuple(boundaries)
        self.keep_spans = keep_spans
        self.active = False
        self.op = -1
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []
        self._ids = itertools.count()
        self._patches = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        for prefix, module_name, target in self.boundaries:
            module = sys.modules[module_name]
            if isinstance(target, tuple):
                attr = _method_name(prefix)
                for cls_name in target:
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[attr]
                    self._patch(cls, attr, self._wrap(prefix, original))
                continue
            original = getattr(module, target)
            wrapper = self._wrap(prefix, original)
            # Every namespace that bound the function by name sees the wrapper.
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == "opdiv" or name.startswith("opdiv.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)
            if getattr(module, target) is original:
                self._patch(module, target, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    # -- recording ------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            with self._lock:
                state = _ThreadState(len(self._states))
                self._states.append(state)
            self._local.state = state
        return state

    def _wrap(self, name: str, fn):
        tracer = self
        count_matrices = name.startswith("numpy.linalg.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            state = tracer._state()
            span_id = next(tracer._ids)
            parent = state.stack[-1][1] if state.stack else None
            frame = [0, span_id]
            state.stack.append(frame)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter_ns() - start
                state.stack.pop()
                if state.stack:
                    state.stack[-1][0] += dur
                rec = state.stats.get(name)
                if rec is None:
                    rec = state.stats[name] = [0, 0, 0]
                rec[0] += 1
                rec[1] += dur - frame[0]
                if count_matrices:
                    rec[2] += _matrices(args)
                if tracer.keep_spans and span_id < SPAN_CAP:
                    state.spans.append((span_id, parent, name, start, dur, tracer.op, state.index))

        return wrapper

    # -- results --------------------------------------------------------

    def stats(self) -> dict:
        """{boundary: [calls, self_ns, matrices]} summed over threads."""
        total = {prefix: [0, 0, 0] for prefix, _, _ in self.boundaries}
        for state in self._states:
            for name, rec in state.stats.items():
                acc = total[name]
                for i in range(3):
                    acc[i] += rec[i]
        return total

    def spans_recorded(self) -> int:
        return sum(len(s.spans) for s in self._states)

    def spans_seen(self) -> int:
        return next(self._ids)

    def write_spans(self, path) -> None:
        """Chrome trace-event JSON. `parent` is the enclosing span on the
        same thread, or null for the outermost one; `op` is shared by all
        spans of one operation, on every thread."""
        events = []
        for state in self._states:
            for span_id, parent, name, start, dur, op, thread in state.spans:
                events.append(
                    {
                        "name": name,
                        "ph": "X",
                        "ts": start / 1000.0,
                        "dur": dur / 1000.0,
                        "pid": 1,
                        "tid": thread,
                        "args": {"id": span_id, "parent": parent, "op": op},
                    }
                )
        events.sort(key=lambda e: e["ts"])
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
