"""Span tracing of the package's layers, installed from outside ``src/``.

``Tracer.install`` replaces every public function of each layer module, in
every module namespace of the package that holds it (its own module
included), by a wrapper that records a span: layer-qualified name, start,
end, parent span and operation id.  Two methods of ``AlgebraicInteger``
(``from_poly`` and ``real_bracket``) are wrapped on the class, because the
per-layer counters need them.  Spans live in flat arrays in memory and are
written out once, at the end.

A span's self time is its duration minus the durations of its direct
children.  Spans opened by a worker thread with no open span of its own take
the innermost open span of the main thread as parent (the benchmark is the
only caller, so that is the span that handed the work over).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from array import array
from pathlib import Path

import numpy as np

PACKAGE = "subspectral"
LAYERS = (
    "substitution",
    "algebraic",
    "riesz",
    "spectral",
    "diophantine",
    "flows",
    "bernoulli",
    "cli",
)
CLASS_METHODS = (("algebraic", "AlgebraicInteger", ("from_poly", "real_bracket")),)


def _count_letters(result, args, kwargs) -> int:
    return len(result)


def _count_tiles(result, args, kwargs) -> int:
    return result.tiles_used


def _count_width(result, args, kwargs) -> int:
    return args[1] if len(args) > 1 else kwargs["width_bits"]


def _count_rows(result, args, kwargs) -> int:
    return len(result.rows)


def _count_call(result, args, kwargs) -> int:
    return 1


# (qualified function name, counter name, amount taken from the call)
COUNTERS = (
    ("substitution.perron_data", "substitution.perron_data_calls", _count_call),
    ("substitution.fixed_point_prefix", "substitution.letters_expanded", _count_letters),
    ("substitution.iterate_word", "substitution.letters_expanded", _count_letters),
    ("flows.twisted_ergodic_integral", "flows.tiles_walked", _count_tiles),
    ("algebraic.AlgebraicInteger.real_bracket", "algebraic.bracket_bits", _count_width),
    ("algebraic.AlgebraicInteger.from_poly", "algebraic.from_poly_calls", _count_call),
    ("diophantine.pisot_sequence", "diophantine.terms", _count_letters),
    ("bernoulli.bc_log_decay_scan", "bernoulli.rows", _count_rows),
)


class Tracer:
    """Records spans around calls into the package's layers."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_layer: list[int] = []
        self.name_index: dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.op_id = -1
        self.counters: dict[str, dict[int, int]] = {}
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack
        self._lock = threading.Lock()

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = {
            layer: importlib.import_module(f"{PACKAGE}.{layer}")
            for layer in LAYERS
        }
        namespaces = list(modules.values()) + [importlib.import_module(PACKAGE)]
        counters = {fn: (name, amount) for fn, name, amount in COUNTERS}
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__
                ):
                    continue
                qual = f"{layer}.{attr}"
                wrapped = self._wrap(qual, layer, obj, counters.get(qual))
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is obj:
                            setattr(ns, key, wrapped)
        for layer, cls_name, methods in CLASS_METHODS:
            cls = getattr(modules[layer], cls_name)
            for meth in methods:
                raw = cls.__dict__[meth]
                qual = f"{layer}.{cls_name}.{meth}"
                if isinstance(raw, classmethod):
                    fn = self._wrap(qual, layer, raw.__func__, counters.get(qual))
                    setattr(cls, meth, classmethod(fn))
                else:
                    setattr(cls, meth, self._wrap(qual, layer, raw, counters.get(qual)))

    def _wrap(self, qual: str, layer: str, fn, counter):
        idx = len(self.names)
        self.names.append(qual)
        self.name_layer.append(LAYERS.index(layer))
        self.name_index[qual] = idx
        local = self._local
        main_stack = self._main_stack
        clock = time.perf_counter
        if counter is not None:
            counter_name, amount = counter
            per_op = self.counters.setdefault(counter_name, {})

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if stack:
                parent = stack[-1]
            elif main_stack:
                parent = main_stack[-1]
            else:
                parent = -1
            with self._lock:
                sid = len(self.span_name)
                self.span_name.append(idx)
                self.span_parent.append(parent)
                self.span_op.append(self.op_id)
                self.span_start.append(0.0)
                self.span_end.append(0.0)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.span_start[sid] = start
                self.span_end[sid] = end
            if counter is not None:
                op = self.op_id
                per_op[op] = per_op.get(op, 0) + amount(result, args, kwargs)
            return result

        return wrapper

    # -- results ----------------------------------------------------------

    def layer_totals(self, ops: set[int]) -> dict[str, tuple[float, int]]:
        """Per layer: (self seconds, span count) over spans whose operation
        id is in ``ops``."""
        n = len(self.span_name)
        if n == 0:
            return {layer: (0.0, 0) for layer in LAYERS}
        name = np.frombuffer(self.span_name, dtype=np.uint16, count=n)
        parent = np.frombuffer(self.span_parent, dtype=np.int64, count=n)
        op = np.frombuffer(self.span_op, dtype=np.int64, count=n)
        dur = np.frombuffer(self.span_end, count=n) - np.frombuffer(
            self.span_start, count=n
        )
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        layer = np.asarray(self.name_layer, dtype=np.int64)[name]
        keep = np.isin(op, list(ops))
        out = {}
        for i, lname in enumerate(LAYERS):
            mask = keep & (layer == i)
            out[lname] = (float(self_time[mask].sum()), int(mask.sum()))
        return out

    def counter_total(self, name: str, ops: set[int]) -> int:
        per_op = self.counters.get(name, {})
        return sum(v for k, v in per_op.items() if k in ops)

    def write(self, path: Path) -> None:
        n = len(self.span_name)
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            name=np.frombuffer(self.span_name, dtype=np.uint16, count=n),
            parent=np.frombuffer(self.span_parent, dtype=np.int64, count=n),
            op=np.frombuffer(self.span_op, dtype=np.int64, count=n),
            start=np.frombuffer(self.span_start, count=n),
            end=np.frombuffer(self.span_end, count=n),
        )
