"""Spans recorded around calls into regcert, and the per-layer arithmetic on them.

A ``Recorder`` lives in one traced CLI process.  Each wrapped call records a
span (name, parent span, thread, start, end, attributes); span stacks are
thread-local, and work submitted to a thread pool is parented under the span
that submitted it.  Very hot functions get a call counter and summed time
instead of spans.  Everything stays in memory until ``dump`` writes it.
"""

from __future__ import annotations

import functools
import json
import statistics
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    parent: Optional[int]
    thread: int
    start: float
    end: Optional[float]
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.spans: list[Span] = []
        self.counters: dict[str, list] = {}  # name -> [calls, summed seconds]

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn: Callable,
             attrs: Optional[Callable[[tuple, dict, object], dict]] = None) -> Callable:
        """``fn`` wrapped so that each call records a span.

        ``attrs(args, kwargs, result)`` adds attributes to spans of calls that
        return normally.
        """
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span = Span(name, stack[-1] if stack else None, threading.get_ident(), 0.0, None)
            with self._lock:
                stack.append(len(self.spans))
                self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        return wrapper

    def count(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so that each call adds to a counter and summed time."""
        totals = self.counters.setdefault(name, [0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                with self._lock:
                    totals[0] += 1
                    totals[1] += elapsed

        return wrapper

    def executor(self, base: type = ThreadPoolExecutor) -> type:
        """A ``base`` subclass whose tasks run under the submitting thread's span."""
        recorder = self

        class TracedExecutor(base):
            def submit(self, fn, /, *args, **kwargs):
                stack = recorder._stack()
                parent = stack[-1:]

                def run(*a, **k):
                    local = recorder._local
                    saved = getattr(local, "stack", None)
                    local.stack = list(parent)
                    try:
                        return fn(*a, **k)
                    finally:
                        local.stack = saved

                return super().submit(run, *args, **kwargs)

        return TracedExecutor

    def dump(self, path) -> None:
        """Write spans and counters as JSON; spans still open end now."""
        now = time.perf_counter()
        spans = [[s.name, s.parent, s.thread, s.start, now if s.end is None else s.end, s.attrs]
                 for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"spans": spans, "counters": self.counters}, fh)


def load(path) -> tuple[list[Span], dict]:
    with open(path) as fh:
        data = json.load(fh)
    return [Span(*row) for row in data["spans"]], data["counters"]


# ---------------------------------------------------------------------------
# Self time and per-layer metrics


def covered(interval: tuple[float, float], parts: list[tuple[float, float]]) -> float:
    """Length of the part of ``interval`` that the union of ``parts`` covers."""
    lo, hi = interval
    total, reach = 0.0, lo
    for a, b in sorted(parts):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover.

    Children running in parallel threads overlap; their union is subtracted
    once, so a parent waiting on two busy workers has near-zero self time.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [s.duration - covered((s.start, s.end), children.get(i, [])) for i, s in enumerate(spans)]


@dataclass
class LayerRecord:
    """One span reduced to what the per-layer metrics need."""

    name: str
    total: float
    self: float
    attrs: dict


def records(spans: list[Span]) -> list[LayerRecord]:
    return [LayerRecord(s.name, s.duration, st, s.attrs) for s, st in zip(spans, self_times(spans))]


def _percentile(values: list[float], q: int) -> float:
    """q-th percentile (q in 1..99) by statistics.quantiles; 0 with no values."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(recs: list[LayerRecord], counters: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass; layers the pass never entered read 0."""
    by_name: dict[str, list[LayerRecord]] = {}
    for r in recs:
        by_name.setdefault(r.name, []).append(r)

    def calls(name):
        return float(len(by_name.get(name, [])))

    def self_s(name):
        return sum(r.self for r in by_name.get(name, []))

    def total_s(name):
        return sum(r.total for r in by_name.get(name, []))

    def attr_sum(name, key):
        return float(sum(r.attrs.get(key, 0) for r in by_name.get(name, [])))

    wcs_ms = [1e3 * r.total for r in by_name.get("linreg.worst_case_search", [])]
    certify_capacity = sum(r.attrs.get("threads", 1) * r.total
                           for r in by_name.get("linreg.certify", []))
    member_calls = calls("numdiff.membership")
    return {
        "linreg.worst_case_search.calls": calls("linreg.worst_case_search"),
        "linreg.worst_case_search.self_s": self_s("linreg.worst_case_search"),
        "linreg.worst_case_search.p50_ms": _percentile(wcs_ms, 50),
        "linreg.worst_case_search.p90_ms": _percentile(wcs_ms, 90),
        "linreg.certify.self_s": self_s("linreg.certify"),
        "linreg.certify.total_s": total_s("linreg.certify"),
        "linreg.sample_source_set.self_s": self_s("linreg.sample_source_set"),
        "linreg.fanout_efficiency": (total_s("linreg.worst_case_search") / certify_capacity
                                     if certify_capacity else 0.0),
        "spectral.make_problem.calls": calls("spectral.make_problem"),
        "spectral.make_problem.self_s": self_s("spectral.make_problem"),
        "spectral.svd.self_s": self_s("spectral.svd"),
        "function_space.holder_norm.calls": calls("function_space.holder_norm"),
        "function_space.holder_norm.self_s": self_s("function_space.holder_norm"),
        "function_space.holder_norm.nodes": attr_sum("function_space.holder_norm", "nodes"),
        "function_space.holder_norm.pair_evals": attr_sum("function_space.holder_norm", "pairs"),
        "function_space.integrate_volterra.self_s": self_s("function_space.integrate_volterra"),
        "function_space.add_noise.self_s": self_s("function_space.add_noise"),
        "numdiff.membership.calls": member_calls,
        "numdiff.membership.self_s": self_s("numdiff.membership"),
        "numdiff.membership.accept_ratio": (attr_sum("numdiff.membership", "ok") / member_calls
                                            if member_calls else 0.0),
        "numdiff.member_candidates.self_s": self_s("numdiff.member_candidates"),
        "numdiff.empirical_sup_error.self_s": self_s("numdiff.empirical_sup_error"),
        "numdiff.differentiate.calls": calls("numdiff.differentiate"),
        "numdiff.witness_pair.self_s": self_s("numdiff.witness_pair"),
        "varreg.minimize.calls": calls("varreg.minimize"),
        "varreg.minimize.self_s": self_s("varreg.minimize"),
        "varreg.minimize.iterations": attr_sum("varreg.minimize", "iterations"),
        "varreg.forward.calls": float(counters.get("varreg.forward", [0])[0]),
        "varreg.functional.calls": float(counters.get("varreg.functional", [0])[0]),
        "cli.run.total_s": total_s("cli.run"),
        "cli.self_s": self_s("cli.run"),
    }
