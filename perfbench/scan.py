"""The ``scan`` workload: planner-routed, sharded kernel work in-process.

Two int32 columns — one clustered, one high-entropy: the paper's best
and worst cases for imprints.  Each is a ``MultiBackendIndex`` (sharded
imprints over two shards, plus zonemap, WAH and scan backends) under a
``QueryExecutor`` with a ``QueryPlanner``.  One caller issues new range
predicates, half as ``query(...).count()`` and half as ``aggregate(...,
"sum")``, after an untimed warm-up with other predicates has let the
planner settle.  Nothing is encoded, so the kernel, the shard dispatch
and the plan choice do nearly all the work.

Every count and sum is checked against the NumPy oracle; the probe
predicates behind ``planner.regret`` are also answered by every backend
forced in turn, and each forced id list must equal the oracle's.
"""

from __future__ import annotations

import time

import numpy as np

from . import inputs
from .metrics import (MB, coverage, executor_metrics, layer_means, pct,
                      peak_rss_mb, planner_shares, stats_snapshot)
from .oracle import SortedOracle, check, check_ids
from .trace import Tracer, install_program
from .windows import (alternate, measure, median_scale, pooled, steal_share,
                      time_setup)

ROWS = 2_000_000
SHARDS = 2
#: Set-ups timed before the timed phase and again after it; setup_s is
#: the median of both bursts.  A set-up's time follows the shared
#: machine's speed, which drifts over seconds, so the two bursts sample
#: it half a minute apart rather than at the run's first seconds only.
SETUPS = 2


def _build(columns: dict):
    from repro.engine.executor import QueryExecutor
    from repro.engine.planner import MultiBackendIndex, QueryPlanner
    from repro.storage import Column

    indexes = {
        name: MultiBackendIndex.for_column(Column(values, name=name),
                                           n_shards=SHARDS)
        for name, values in columns.items()
    }
    return QueryExecutor(indexes, planner=QueryPlanner()), indexes


def _close(executor, indexes) -> None:
    executor.close()
    for index in indexes.values():
        index.primary.close()


def _time_setups(columns: dict, count: int) -> list[float]:
    """Build and drop ``count`` stacks one at a time (so peak RSS counts
    one live stack); their calibrated build times."""
    times = []
    for _ in range(count):
        seconds, (executor, indexes) = time_setup(lambda: _build(columns))
        times.append(seconds)
        _close(executor, indexes)
        del executor, indexes
    return times


class Caller:
    def __init__(self, executor, ops):
        self.executor = executor
        self.ops = iter(ops)
        self.answers: list = []

    def call(self, tracer=None) -> tuple[float, bool]:
        """One operation; returns its latency in ms, scored."""
        op = next(self.ops)
        name, kind, low, high = op
        started = time.perf_counter()
        if tracer is not None:
            with tracer.root(key=kind):
                answer = self._answer(name, kind, low, high)
        else:
            answer = self._answer(name, kind, low, high)
        latency = (time.perf_counter() - started) * 1e3
        self.answers.append((op, answer))
        return latency, True

    def _answer(self, name, kind, low, high):
        executor = self.executor
        predicate = executor.predicate(name, low, high)
        if kind == "count":
            return executor.query(name, predicate).count()
        return executor.aggregate(name, predicate, "sum")


def _probe(executor, indexes, oracles, probe) -> dict:
    """Planner regret and shard speed-up on the same fresh predicates,
    and every forced backend's ids checked against the oracle."""
    routed = 0.0
    forced: dict = {}
    inner_s = sharded_s = 0.0
    for name, _, low, high in probe:
        predicate = executor.predicate(name, low, high)
        started = time.perf_counter()
        executor.query(name, predicate).count()
        routed += time.perf_counter() - started
        expected = oracles[name].ids(low, high)
        for kind in indexes[name].backends:
            started = time.perf_counter()
            result = executor.query(name, predicate, backend=kind)
            result.count()
            forced.setdefault(name, {}).setdefault(kind, 0.0)
            forced[name][kind] += time.perf_counter() - started
            check_ids(result.ids, expected, f"scan {kind} on {name} [{low}, {high})")
        primary = indexes[name].primary
        for _ in range(3):
            started = time.perf_counter()
            primary.inner.query(predicate).count()
            inner_s += time.perf_counter() - started
            started = time.perf_counter()
            primary.query(predicate).count()
            sharded_s += time.perf_counter() - started
    best = sum(min(times.values()) for times in forced.values())
    return {"planner.regret": routed / best, "sharded.speedup": inner_s / sharded_s}


def run(seed: int, seconds: float, trace: bool, rows: int = ROWS) -> dict:
    data = inputs.scan_inputs(seed, rows)
    setups = _time_setups(data.columns, SETUPS - 1)
    built_s, (executor, indexes) = time_setup(lambda: _build(data.columns))
    setups.append(built_s)
    planner = executor.planner
    try:
        warm = Caller(executor, data.warmup)
        for _ in data.warmup:
            warm.call()
        caller = Caller(executor, data.timed)
        plans_before = dict(planner.stats_payload()["plans"])
        if not trace:
            windows = measure(seconds, caller.call)
        else:
            tracer = Tracer()
            before = stats_snapshot(executor)
            windows, traced = alternate(
                seconds, lambda on: caller.call(tracer if on else None),
                lambda: install_program(tracer), tracer.uninstall)
            after = stats_snapshot(executor)
        plans = planner.stats_payload()["plans"]
        peak_rss = peak_rss_mb()      # before the oracles take memory
        oracles = {name: SortedOracle(values)
                   for name, values in data.columns.items()}
        probe = _probe(executor, indexes, oracles, data.probe) if trace else {}
        memory = {
            "mem.column_mb": sum(v.nbytes for v in data.columns.values()) / MB,
            "mem.index_mb": sum(ix.primary.nbytes for ix in indexes.values()) / MB,
            "mem.sidecar_mb": sum(ix.cacheline_aggregates.nbytes
                                  for ix in indexes.values()) / MB,
            "mem.backends_mb": sum(ix.nbytes - ix.primary.nbytes
                                   for ix in indexes.values()) / MB,
        }
    finally:
        _close(executor, indexes)

    for (name, kind, low, high), answer in warm.answers + caller.answers:
        oracle = oracles[name]
        expected = oracle.count(low, high) if kind == "count" else oracle.sum(low, high)
        check(int(answer) == expected,
              f"scan {kind} on {name} [{low}, {high}): {answer} != {expected}")

    timed = {k: plans.get(k, 0) - plans_before.get(k, 0) for k in plans}
    latencies, ops_per_s = pooled(windows, per_busy=True)
    raw = pooled(windows, per_busy=True, calibrated=False)[0]
    info = {
        "samples": len(latencies),
        "failed_frac": 0.0,
        "raw_p50_ms": pct(raw, 50),
        "raw_p99_ms": pct(raw, 99),
        "calibration_scale": median_scale(windows),
        "steal_share": steal_share(windows),
        "plans": timed,
    }
    result = {"attempted": len(caller.answers), "failed": 0, "info": info}
    if not trace:
        # The run's stack is closed; drop it, then set up again half a
        # minute after the first burst (see SETUPS).
        del warm, caller, planner, executor, indexes
        setups += _time_setups(data.columns, SETUPS)
        result["e2e"] = {
            "p50_ms": pct(latencies, 50),
            "p99_ms": pct(latencies, 99),
            "ops_per_s": ops_per_s,
            "setup_s": float(np.median(setups)),
            "peak_rss_mb": peak_rss,
        }
        return result
    records = tracer.attribute(root_names=("call",))
    layers = layer_means(records)
    layers.update(executor_metrics(before, after))
    layers.update(planner_shares({"plans": timed}))
    layers.update(probe)
    layers.update(memory)
    layers["trace.coverage"] = coverage(records)
    layers["trace.overhead"] = pct(pooled(traced)[0], 50) / pct(latencies, 50)
    result["layers"] = layers
    return result
