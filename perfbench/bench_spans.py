"""Span tracer for the benchmark's traced run.

While installed, a Tracer replaces every public function of the traced
modules with a wrapper that records one span per call: name, parent span,
operation index, start and end time, self time (duration minus the time of
direct child spans), the rise of the process high-water mark (ru_maxrss)
across the call, and optional work counters.  The program's sources are not
edited: the wrappers live on the module objects only while the tracer is
installed, and uninstall() puts the original functions back.

Calls made through a module attribute or a module-level global name are seen
(pipeline.match_pair calling patch_model.cdf_eval, self_sim calling its own
aligned_ssd_map).  Functions bound by name into another module with
`from x import f` are not.

Spans are kept in memory; summarize() folds them into per-name totals, and
layer_metric() reads one named figure from those totals.  A name that no
longer exists in the program reads as zero calls, so the traced run keeps
working when a later change removes or renames a function.
"""
from __future__ import annotations

import functools
import inspect
import resource
import time
from collections import defaultdict
from dataclasses import dataclass, field


def maxrss_kb() -> int:
    """Process high-water resident set size in KiB (Linux units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    op: int
    start: float = 0.0
    end: float = 0.0
    child_s: float = 0.0
    rss_rise_kb: int = 0
    counts: dict = field(default_factory=dict)
    # counters of all descendant spans, by counter name
    inner: dict = field(default_factory=lambda: defaultdict(int))

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    def as_dict(self) -> dict:
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "op": self.op, "start": self.start, "end": self.end,
                "self_s": self.self_s, "rss_rise_kb": self.rss_rise_kb,
                "counts": dict(self.counts), "inner": dict(self.inner)}


class Tracer:
    """Records spans around the public functions of `modules`.

    modules maps a short layer name ("patch_model") to the module object;
    spans are named "<layer>.<function>".  counters maps a span name to a
    function of (bound arguments, result) returning a dict of work counts;
    a counter that no longer fits the function's signature is skipped.
    """

    def __init__(self, modules: dict, counters: dict | None = None):
        self.modules = modules
        self.counters = counters or {}
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[Span] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for layer, module in self.modules.items():
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(f"{layer}.{attr}", fn))

    def uninstall(self) -> None:
        for module, attr, fn in self._saved:
            setattr(module, attr, fn)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span of the given name (the benchmark's own
        spans, such as one per operation)."""
        return self._wrap(name, fn)(*args, **kwargs)

    def _wrap(self, name: str, fn):
        counter = self.counters.get(name)
        try:
            signature = inspect.signature(fn)
        except (TypeError, ValueError):
            signature = None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(id=len(self.spans),
                        parent=parent.id if parent else None,
                        name=name, op=self.op)
            self.spans.append(span)
            self._stack.append(span)
            rss0 = maxrss_kb()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.rss_rise_kb = maxrss_kb() - rss0
                self._stack.pop()
                if parent is not None:
                    parent.child_s += span.duration
            if counter is not None and signature is not None:
                span.counts = _count(counter, signature, args, kwargs, result)
                for ancestor in self._stack:
                    for key, value in span.counts.items():
                        ancestor.inner[key] += value
            return result

        return traced


def _count(counter, signature, args, kwargs, result) -> dict:
    try:
        bound = signature.bind(*args, **kwargs).arguments
        return {k: int(v) for k, v in counter(bound, result).items()}
    except (TypeError, KeyError, IndexError, AttributeError, ValueError):
        return {}


def summarize(spans: list[Span], ops: set[int]) -> dict:
    """Per span name: calls, total and self seconds, high-water rise,
    counters and descendant counters, over the spans of the given ops."""
    out: dict[str, dict] = {}
    for span in spans:
        if span.op not in ops:
            continue
        agg = out.setdefault(span.name, {
            "calls": 0, "s": 0.0, "self_s": 0.0, "rss_rise_kb": 0,
            "counts": defaultdict(int), "inner": defaultdict(int)})
        agg["calls"] += 1
        agg["s"] += span.duration
        agg["self_s"] += span.self_s
        agg["rss_rise_kb"] += span.rss_rise_kb
        for key, value in span.counts.items():
            agg["counts"][key] += value
        for key, value in span.inner.items():
            agg["inner"][key] += value
    return out


def layer_metric(summary: dict, metric: str, num_ops: int) -> float:
    """Value of a per-layer metric "<layer>.<function>.<field>".

    Fields: calls, s and self_s are per operation; rss_rise_mb is the total
    rise of the high-water mark inside the span over the traced run;
    useful_ratio is the span's "useful" counter over the "values" counted
    by its descendants; any other field is a counter per operation.  A span
    that never ran reads 0.
    """
    name, _, fld = metric.rpartition(".")
    agg = summary.get(name)
    if agg is None or num_ops < 1:
        return 0.0
    if fld in ("calls", "s", "self_s"):
        return agg[fld] / num_ops
    if fld == "rss_rise_mb":
        return agg["rss_rise_kb"] / 1024.0
    if fld == "useful_ratio":
        values = agg["inner"].get("values", 0)
        return agg["counts"].get("useful", 0) / values if values else 0.0
    return agg["counts"].get(fld, 0) / num_ops
