"""The benchmark's metric names and units, and small statistics helpers.

``END_TO_END`` and ``PER_LAYER`` are the lists ``BENCHMARK.json``
publishes (the self-test checks the two agree).  Every workload
reports every metric: a per-layer metric whose layer does not run on a
workload reads 0 there — see ``layer_map`` in ``perfbench/traffic.json``.
"""

from __future__ import annotations

import resource

import numpy as np

END_TO_END = {
    "p50_ms": "ms",
    "p99_ms": "ms",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "http.self_ms": "ms",
    "http.resp_bytes": "bytes",
    "service.self_ms": "ms",
    "admission.wait_ms": "ms",
    "admission.rejected": "count",
    "executor.self_ms": "ms",
    "executor.batch_size": "count",
    "executor.coalesced_share": "ratio",
    "cache.hit_ratio": "ratio",
    "cache.mb": "MB",
    "planner.self_ms": "ms",
    "planner.regret": "ratio",
    "planner.share.imprints": "ratio",
    "planner.share.zonemap": "ratio",
    "planner.share.wah": "ratio",
    "planner.share.scan": "ratio",
    "sharded.speedup": "ratio",
    "kernel.self_ms": "ms",
    "kernel.index_probes": "count",
    "kernel.value_comparisons": "count",
    "kernel.cachelines_fetched": "count",
    "kernel.full_line_share": "ratio",
    "rowset.ids_ms": "ms",
    "rowset.ids_per_answer": "count",
    "aggregates.scalar_ms": "ms",
    "delta.merge_ms": "ms",
    "delta.pending_rows": "count",
    "write.p50_ms": "ms",
    "write.p99_ms": "ms",
    "wal.syncs_per_write": "ratio",
    "wal.bytes_per_user_byte": "ratio",
    "checkpoint.count": "count",
    "checkpoint.ms": "ms",
    "checkpoint.bytes_per_user_byte": "ratio",
    "recovery.reopen_ms": "ms",
    "mem.column_mb": "MB",
    "mem.index_mb": "MB",
    "mem.sidecar_mb": "MB",
    "mem.backends_mb": "MB",
    "loadgen.late_p99_ms": "ms",
    "loadgen.rate_share": "ratio",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}

#: Span name -> the per-layer self-time metric it feeds.
SPAN_METRICS = {
    "service": "service.self_ms",
    "admission": "admission.wait_ms",
    "executor": "executor.self_ms",
    "planner": "planner.self_ms",
    "kernel": "kernel.self_ms",
    "rowset": "rowset.ids_ms",
    "aggregates.scalar": "aggregates.scalar_ms",
    "delta": "delta.merge_ms",
}

MB = float(1 << 20)


def pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_means(records: list[dict]) -> dict:
    """Mean per-request self time (ms) of each traced layer, plus the
    mean ``QueryStats`` counters per kernel-evaluated query."""
    out = {}
    if not records:
        return out
    for span_name, metric in SPAN_METRICS.items():
        total = sum(r["layers_ns"].get(span_name, 0) for r in records)
        out[metric] = total / len(records) / 1e6
    counters = [c for r in records for c in r["counters"]]
    queries = sum(c[0] for c in counters)
    if queries:
        probes, comparisons, lines, full, partial = (
            sum(c[i] for c in counters) for i in range(1, 6))
        out["kernel.index_probes"] = probes / queries
        out["kernel.value_comparisons"] = comparisons / queries
        out["kernel.cachelines_fetched"] = lines / queries
        out["kernel.full_line_share"] = full / max(1, full + partial)
    return out


def executor_metrics(before: dict, after: dict) -> dict:
    """Batch, coalescing and cache figures over a phase, from two
    ``stats_payload()``-shaped snapshots taken before and after it."""
    def delta(section, name):
        return after[section][name] - before[section][name]

    hits = delta("engine", "cache_hits")
    lookups = hits + delta("engine", "cache_misses")
    return {
        "executor.batch_size": (delta("engine", "batched_queries")
                                / max(1, delta("engine", "batches"))),
        "executor.coalesced_share": (delta("engine", "coalesced")
                                     / max(1, delta("engine", "submitted"))),
        "cache.hit_ratio": hits / max(1, lookups),
        "cache.mb": after["cache"]["bytes"] / MB,
        "admission.rejected": float(delta("admission", "rejected")),
    }


def coverage(records: list[dict], root: str = "call") -> float:
    """Mean share of a caller's operation covered by program spans
    (everything but the harness's own root span)."""
    shares = [
        1.0 - r["layers_ns"].get(root, 0) / max(1, r["end"] - r["start"])
        for r in records
    ]
    return float(np.mean(shares)) if shares else 0.0


def stats_snapshot(executor) -> dict:
    """The ``stats_payload()`` fields :func:`executor_metrics` reads,
    for an in-process executor."""
    engine = executor.stats
    return {
        "engine": {name: getattr(engine, name) for name in (
            "submitted", "coalesced", "cache_hits", "cache_misses",
            "batches", "batched_queries")},
        "cache": {"bytes": executor.cache.bytes},
        "admission": {"rejected": 0},
    }


def planner_shares(payload: dict) -> dict:
    plans = payload.get("plans", {})
    total = sum(plans.values())
    out = {}
    for kind in ("imprints", "zonemap", "wah", "scan"):
        count = sum(v for k, v in plans.items() if k.startswith(kind))
        out[f"planner.share.{kind}"] = count / total if total else 0.0
    return out
