"""Span tracing installed from outside the program.

:class:`Tracer` wraps public entry points of the program's classes
(``setattr`` on the class, restored by :meth:`Tracer.uninstall`), so
nothing under ``src/`` knows it is traced.  Each call into a wrapped
entry point records a span — name, start, end, parent and, for spans
that start on a worker thread with no parent, the requests they served
— in memory.  :meth:`Tracer.attribute` turns the spans into per-request
self times per layer once the run ends.

Parents follow a context variable, which asyncio tasks and
``asyncio.to_thread`` copy, so a span inherits its caller's span across
``await`` and thread hand-off.  The executor's batch workers run in
plain threads without that context: a span starting there links to the
requests whose predicates it evaluates, through the predicates every
traced ``QueryExecutor.submit`` registers while its future is pending.
A span for a coalesced batch therefore lists every request it served.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import itertools
import threading
import time
from collections import defaultdict

now_ns = time.monotonic_ns  # CLOCK_MONOTONIC: comparable across processes


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "served", "key",
                 "stats")

    def __init__(self, sid, name, parent, served=(), key=None):
        self.sid = sid
        self.name = name
        self.start = now_ns()
        self.end = None
        self.parent = parent
        self.served = served
        self.key = key
        self.stats = None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._current = contextvars.ContextVar("perfbench_span", default=None)
        self._pending: dict = defaultdict(list)
        self._lock = threading.Lock()
        self._patches: list = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def open(self, name: str, *, key=None, predicates=()) -> Span:
        parent = self._current.get()
        served = ()
        if parent is None and predicates:
            with self._lock:
                served = tuple(
                    {sid for p in predicates for sid in self._pending.get(p, ())}
                )
        span = Span(next(self._ids), name, parent, served, key)
        self.spans.append(span)
        return span

    def enter(self, span: Span):
        return self._current.set(span.sid)

    def leave(self, span: Span, token) -> None:
        span.end = now_ns()
        self._current.reset(token)

    @contextlib.contextmanager
    def root(self, name: str = "call", key=None):
        """A harness-side root span (in-process workloads: one caller
        operation)."""
        span = self.open(name, key=key)
        token = self.enter(span)
        try:
            yield span
        finally:
            self.leave(span, token)

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, *, predicates=None,
             key=None, on_result=None) -> None:
        """Wrap ``owner.attr`` (a sync or async method) in a span.

        ``predicates(args, kwargs)`` names the predicates the call
        evaluates (to link worker-thread spans to requests); ``key``
        labels the span for matching it to a client request;
        ``on_result(span, args, kwargs, result)`` records counters.
        """
        original = owner.__dict__.get(attr)
        target = getattr(owner, attr)
        tracer = self

        def before(args, kwargs) -> Span:
            preds = ()
            if predicates is not None and tracer._current.get() is None:
                preds = predicates(args, kwargs)
            return tracer.open(
                name, key=key(args, kwargs) if key else None, predicates=preds
            )

        if inspect.iscoroutinefunction(target):
            @functools.wraps(target)
            async def wrapper(*args, **kwargs):
                span = before(args, kwargs)
                token = tracer.enter(span)
                try:
                    return await target(*args, **kwargs)
                finally:
                    tracer.leave(span, token)
        else:
            @functools.wraps(target)
            def wrapper(*args, **kwargs):
                span = before(args, kwargs)
                token = tracer.enter(span)
                try:
                    result = target(*args, **kwargs)
                    if on_result is not None:
                        on_result(span, args, kwargs, result)
                    return result
                finally:
                    tracer.leave(span, token)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def wrap_submit(self, owner) -> None:
        """Trace ``QueryExecutor.submit``: an ``executor`` span from
        submission until its future resolves, registered as pending for
        its predicate until then."""
        original = owner.__dict__["submit"]
        tracer = self

        @functools.wraps(original)
        def submit(executor, name, predicate, **kwargs):
            span = tracer.open("executor")
            with tracer._lock:
                tracer._pending[predicate].append(span.sid)

            def done(_future) -> None:
                span.end = now_ns()
                with tracer._lock:
                    waiting = tracer._pending.get(predicate)
                    if waiting is not None and span.sid in waiting:
                        waiting.remove(span.sid)
                        if not waiting:
                            del tracer._pending[predicate]

            future = original(executor, name, predicate, **kwargs)
            future.add_done_callback(done)
            return future

        setattr(owner, "submit", submit)
        self._patches.append((owner, "submit", original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # attribution
    # ------------------------------------------------------------------
    def attribute(self, root_names=("service", "call")) -> list[dict]:
        """Per-request self times per layer, one record per root span.

        A span's self time is its duration minus the part of it its
        children cover.  A worker-thread span that served several
        requests counts in full for each: each of them waited for it.
        """
        by_parent: dict = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                by_parent[span.parent].append(span)
            else:
                for sid in span.served:
                    by_parent[sid].append(span)

        def walk(span: Span, parent_name, layers: dict, counters: list,
                 depth: int) -> None:
            end = span.end if span.end is not None else span.start
            children = by_parent.get(span.sid, ())
            intervals = sorted(
                (max(c.start, span.start),
                 min(c.end if c.end is not None else c.start, end))
                for c in children
            )
            covered = 0
            cursor = span.start
            for lo, hi in intervals:
                lo = max(lo, cursor)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            layers[span.name] = layers.get(span.name, 0) + (
                end - span.start - covered)
            if span.stats is not None and parent_name != "kernel":
                counters.append(span.stats)
            if depth < 32:
                for child in children:
                    walk(child, span.name, layers, counters, depth + 1)

        records = []
        for span in self.spans:
            if span.parent is None and span.name in root_names:
                layers: dict = {}
                counters: list = []
                walk(span, None, layers, counters, 0)
                records.append({
                    "key": span.key,
                    "start": span.start,
                    "end": span.end if span.end is not None else span.start,
                    "layers_ns": layers,
                    "counters": counters,
                })
        return records


def kernel_counters(span: Span, args, kwargs, result) -> None:
    """``on_result`` hook: sum the ``QueryStats`` of a kernel call's
    answers (attribution skips a kernel span nested in another)."""
    results = result if isinstance(result, list) else [result]
    stats = [getattr(r, "stats", None) for r in results]
    stats = [s for s in stats if s is not None]
    span.stats = (
        len(stats),
        sum(s.index_probes for s in stats),
        sum(s.value_comparisons for s in stats),
        sum(s.cachelines_fetched for s in stats),
        sum(s.full_cachelines for s in stats),
        sum(s.partial_cachelines for s in stats),
    )


def _first_predicate(args, kwargs):
    return (args[1],) if len(args) > 1 else (kwargs.get("predicate"),)


def _batch_predicates(args, kwargs):
    return tuple(args[1]) if len(args) > 1 else tuple(kwargs["predicates"])


def _choose_predicate(args, kwargs):
    return (args[3],) if len(args) > 3 else (kwargs["predicate"],)


def install_program(tracer: Tracer, *, service_key=None) -> None:
    """Wrap the program's public entry points, layer by layer."""
    from repro.core.delta_index import DeltaAwareImprints
    from repro.core.index import ColumnImprints
    from repro.core.rowset import RowSet
    from repro.engine.executor import QueryExecutor
    from repro.engine.planner import MultiBackendIndex, QueryPlanner
    from repro.engine.sharded import ShardedColumnImprints
    from repro.indexes import SequentialScan, WahBitmapIndex, ZoneMap
    from repro.serving.admission import AdmissionController
    from repro.serving.service import ImprintService

    for method in ("query", "aggregate"):
        tracer.wrap(ImprintService, method, "service",
                    key=service_key(method) if service_key else None)
    tracer.wrap(AdmissionController, "acquire", "admission")
    tracer.wrap_submit(QueryExecutor)
    tracer.wrap(QueryExecutor, "aggregate", "executor")
    tracer.wrap(QueryPlanner, "choose", "planner", predicates=_choose_predicate)
    tracer.wrap(MultiBackendIndex, "query_batch", "planner",
                predicates=_batch_predicates)
    tracer.wrap(DeltaAwareImprints, "query", "delta",
                predicates=_first_predicate)
    tracer.wrap(DeltaAwareImprints, "aggregate", "delta")
    for cls in (ColumnImprints, ShardedColumnImprints):
        tracer.wrap(cls, "query", "kernel", predicates=_first_predicate,
                    on_result=kernel_counters)
        tracer.wrap(cls, "query_batch", "kernel", predicates=_batch_predicates,
                    on_result=kernel_counters)
        tracer.wrap(cls, "aggregate", "aggregates.scalar")
    tracer.wrap(ColumnImprints, "candidate_ranges", "kernel",
                on_result=kernel_counters)
    for cls in (ZoneMap, WahBitmapIndex, SequentialScan):
        tracer.wrap(cls, "query", "kernel", predicates=_first_predicate,
                    on_result=kernel_counters)
    tracer.wrap(RowSet, "to_ids", "rowset")
