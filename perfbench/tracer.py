"""Span tracing of oddseq from outside: wrap each layer's public callables.

Every public function of a layer module, and every public method of a
public class defined there, is replaced by a wrapper at each binding a
caller can look it up through: module attributes across the whole package
(so `from .sequences import element_at` in counting is caught too) and
class attributes.  `uninstall` puts the originals back.

A span holds its name, start, end, parent span and request id.  Spans stay
in memory in flat arrays and are written out when the run ends.  A layer's
self time is its spans' durations minus the time their child spans cover.
There are no threads or queues in oddseq, so no layer ever waits; the
layer table says so instead of showing an empty wait column.
"""
from __future__ import annotations

import importlib
import inspect
import sys
import time
import weakref
from array import array
from enum import Enum

import numpy as np

LAYERS = ("sequences", "pcomposites", "counting", "primegen", "oracle", "cli")
NO_WAIT = "none: one thread, no queues"

SETUP = -1  # request id of spans recorded during set-up
SAVED_SPANS = 1_000_000  # spans written out; aggregates use every span
_RANK_QUERIES = ("prime_count", "odd_composite_count")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.name = array("H")
        self.request = array("i")
        self.failed = array("b")
        self._stack = [-1]
        self._current = [SETUP]
        self.primes_returned = 0
        self.packed_bytes = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def begin_request(self, request_id: int) -> None:
        self._current[0] = request_id

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str, label=None, observe=None):
        """fn with a span around each call.

        label(args, kwargs) picks a span name from the arguments; observe
        sees the result, for counts taken at the same boundary.
        """
        default = self._name_id(name)
        start, end, parent = self.start, self.end, self.parent
        names, requests, failed = self.name, self.request, self.failed
        stack, current, clock = self._stack, self._current, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            i = len(start)
            names.append(default if label is None else label(args, kwargs))
            parent.append(stack[-1])
            requests.append(current[0])
            failed.append(0)
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end[i] = clock()
                stack.pop()
                failed[i] = 1
                raise
            end[i] = clock()
            stack.pop()
            if observe is not None:
                observe(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _hooks(self, name: str) -> dict:
        """Labels and counts that need a look at arguments or results."""
        if name == "counting.assemble_w":
            formula = self._name_id(name + "[formula]")
            plain = self._name_id(name)

            def label(args, kwargs):
                strategy = args[1] if len(args) > 1 else kwargs.get("strategy")
                return formula if strategy == "formula" else plain

            return {"label": label}
        if name.startswith("oracle.SieveTable.") and name.endswith(_RANK_QUERIES):
            first, later = self._name_id(name + "[first]"), self._name_id(name)
            seen = self._ranked_tables

            def label(args, kwargs):
                if args[0] in seen:
                    return later
                seen.add(args[0])
                return first

            return {"label": label}
        if name == "oracle.SieveTable.build":
            def observe(table):
                self.packed_bytes = max(self.packed_bytes, table.packed.nbytes)

            return {"observe": observe}
        if name == "primegen.first_n_primes":
            def observe(primes):
                self.primes_returned += len(primes)

            return {"observe": observe}
        return {}

    # -- installing --------------------------------------------------------

    def install(self, package) -> None:
        self._ranked_tables = weakref.WeakSet()
        prefix = package.__name__
        layer_modules = [importlib.import_module(f"{prefix}.{layer}")
                         for layer in LAYERS]
        namespaces = [m for key, m in sorted(sys.modules.items())
                      if key == prefix or key.startswith(prefix + ".")]
        try:
            for layer, module in zip(LAYERS, layer_modules):
                for attr, obj in sorted(vars(module).items()):
                    if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                        continue
                    if inspect.isfunction(obj):
                        name = f"{layer}.{attr}"
                        wrapper = self._wrap(obj, name, **self._hooks(name))
                        for ns in namespaces:
                            for key, value in list(vars(ns).items()):
                                if value is obj:
                                    self._patch(ns, key, wrapper)
                    elif inspect.isclass(obj) and not issubclass(obj, Enum):
                        self._install_methods(f"{layer}.{attr}", obj)
        except BaseException:
            self.uninstall()
            raise

    def _install_methods(self, prefix: str, cls) -> None:
        for attr, raw in sorted(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(raw.__func__, name, **self._hooks(name)))
            elif inspect.isfunction(raw):
                wrapped = self._wrap(raw, name, **self._hooks(name))
            else:
                continue
            self._patch(cls, attr, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "name": np.frombuffer(self.name, dtype=np.uint16),
            "request": np.frombuffer(self.request, dtype=np.int32),
            "failed": np.frombuffer(self.failed, dtype=np.int8),
        }

    def save(self, path) -> None:
        """Write the first SAVED_SPANS spans, in the order they began."""
        spans = {k: v[:SAVED_SPANS] for k, v in self.arrays().items()}
        np.savez(path, names=np.array(self.names), recorded=len(self.start),
                 **spans)

    def summarize(self, requests: int, latency_ns_total: int,
                  output_bytes: int) -> dict:
        """Per-layer metrics and the layer table for a run of `requests`."""
        a = self.arrays()
        n_names = len(self.names)
        dur = (a["end_ns"] - a["start_ns"]).astype(np.float64)
        parent, name = a["parent"], a["name"].astype(np.int64)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested],
                              minlength=len(dur))
        self_ns = dur - covered
        timed = a["request"] >= 0
        layer_of = np.array([LAYERS.index(n.split(".")[0]) for n in self.names]
                            or [0], dtype=np.int64)
        span_layer = layer_of[name]

        def per_name(values, mask=None):
            if mask is not None:
                return np.bincount(name[mask], weights=values[mask],
                                   minlength=n_names)
            return np.bincount(name, weights=values, minlength=n_names)

        ones = np.ones_like(dur)
        calls_all, calls_timed = per_name(ones), per_name(ones, timed)
        dur_all, dur_timed = per_name(dur), per_name(dur, timed)
        self_all = per_name(self_ns)

        def ids(*names):
            return [self._ids[n] for n in names if n in self._ids]

        def total(table, *names):
            return float(sum(table[i] for i in ids(*names)))

        def mean(table, *names):
            calls = total(calls_all, *names)
            return total(table, *names) / calls if calls else 0.0

        def each_request(value):
            return value / requests if requests else 0.0

        rank = [f"oracle.SieveTable.{q}" for q in _RANK_QUERIES]
        classes = ("counting.count_kl", "counting.count_kkl", "counting.count_kpow")
        pcomp_counts = [n for n in self.names
                        if n.startswith("pcomposites.count_")]
        first_n = total(dur_all, "primegen.first_n_primes")

        # an exception leaves a layer where its span's parent is elsewhere
        failed = a["failed"].astype(bool)
        parent_layer = np.where(nested, span_layer[np.maximum(parent, 0)], -1)
        leaving = failed & (parent_layer != span_layer)
        errors = np.bincount(span_layer[leaving], minlength=len(LAYERS))

        layer_self = np.bincount(span_layer[timed], weights=self_ns[timed],
                                 minlength=len(LAYERS))
        layer_calls = np.bincount(span_layer[timed], minlength=len(LAYERS))
        seq = LAYERS.index("sequences")
        cli = LAYERS.index("cli")
        self_sum = float(layer_self.sum())

        metrics = {
            "oracle.build_ms": mean(dur_all, "oracle.SieveTable.build") / 1e6,
            "oracle.build_calls": each_request(
                total(calls_timed, "oracle.SieveTable.build")),
            "oracle.first_query_ms": mean(dur_all, *[q + "[first]" for q in rank]) / 1e6,
            "oracle.packed_bytes": float(self.packed_bytes),
            "oracle.query_us": mean(dur_all, *rank) / 1e3,
            "oracle.enum_ms": each_request(
                total(dur_timed, "oracle.count_class_upto")) / 1e6,
            "oracle.is_prime_calls": each_request(
                total(calls_timed, "oracle.SieveTable.is_prime")),
            "oracle.is_prime_ms": each_request(
                total(dur_timed, "oracle.SieveTable.is_prime")) / 1e6,
            "counting.pi_of_self_us": mean(self_all, "counting.pi_of") / 1e3,
            "counting.assemble_w_self_us": mean(
                self_all, "counting.assemble_w", "counting.assemble_w[formula]") / 1e3,
            "counting.formula_ms": each_request(
                total(dur_timed, "counting.assemble_w[formula]")) / 1e6,
            "counting.formula_calls": each_request(
                total(calls_timed, "counting.assemble_w[formula]")),
            "counting.class_ms": each_request(total(dur_timed, *classes)) / 1e6,
            "pcomposites.count_ms": each_request(
                total(dur_timed, *pcomp_counts)) / 1e6,
            "pcomposites.values_ms": each_request(
                total(dur_timed, "pcomposites.p_composite_values")) / 1e6,
            "primegen.call_ms": mean(dur_all, "primegen.first_n_primes") / 1e6,
            "primegen.primes_per_s": (self.primes_returned / (first_n / 1e9)
                                      if first_n else 0.0),
            "sequences.calls": each_request(float(layer_calls[seq])),
            "sequences.self_us": each_request(float(layer_self[seq])) / 1e3,
            "cli.self_ms": each_request(float(layer_self[cli])) / 1e6,
            "cli.output_bytes": each_request(float(output_bytes)),
        }
        for k, layer in enumerate(LAYERS):
            metrics[f"{layer}.errors"] = float(errors[k])
        metrics["trace.unattributed_ms"] = each_request(
            latency_ns_total - self_sum) / 1e6

        table = [
            {
                "layer": layer,
                "self_ms_per_request": each_request(float(layer_self[k])) / 1e6,
                "calls_per_request": each_request(float(layer_calls[k])),
                "wait": NO_WAIT,
                "errors": int(errors[k]),
            }
            for k, layer in enumerate(LAYERS)
        ]
        return {
            "metrics": metrics,
            "layers": table,
            "spans": len(dur),
            "self_sum_ms_per_request": each_request(self_sum) / 1e6,
            "traced_request_ms": each_request(latency_ns_total) / 1e6,
        }
