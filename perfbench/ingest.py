"""The ``ingest`` workload: durable writes interleaved with reads.

One ``DurableStore`` column behind a ``QueryExecutor``, as ``repro
serve --store`` builds it, with the store's default flush policy
(``group_window=0``: every mutation is fsynced before it is
acknowledged) on real files under ``.perfbench_tmp/`` in the checkout.
One caller runs the seeded streams of :func:`perfbench.inputs.ingest_writes`
(row-batch appends and single-row updates, :data:`WRITE_RATE` per
second) and :func:`perfbench.inputs.ingest_reads` (``count``, ``sum``,
first page of 100 ids, back to back between writes).  Appends are sized
so that several checkpoints fire inside a run.

The run ends by closing and reopening the store; the reopened column
must hold every acknowledged mutation.  Every read is checked against
:class:`IngestOracle`, which replays the same operations on NumPy
arrays.

``DurableStore.checkpoint`` replaces the column's index object, while a
``QueryExecutor`` keeps the object it was given: reads after a
checkpoint would answer from the retired index.  The caller therefore
re-registers the store's current index after each write, as any
program embedding both must.
"""

from __future__ import annotations

import os
import pathlib
import shutil
import time

import numpy as np

from . import inputs
from .metrics import (MB, coverage, executor_metrics, layer_means, pct,
                      peak_rss_mb, stats_snapshot)
from .oracle import check, check_ids
from .trace import Tracer, install_program
from .windows import (alternate, measure, median_scale, pairwise, pooled,
                      steal_share, time_setup)

ROWS = 1_000_000
APPEND_ROWS = 6144
WARMUP_SECONDS = 1.0
#: Set-ups timed before the timed phase and again after it; setup_s is
#: the median of both bursts.  A set-up's time follows the shared
#: machine's speed, which drifts over seconds, so the two bursts sample
#: it half a minute apart rather than at the run's first seconds only.
SETUPS = 16
WRITE_RATE = 30.0          # writes per second: about 1 per 3 reads here
COLUMN = "serve"
TMP = pathlib.Path(__file__).resolve().parent.parent / ".perfbench_tmp"


class IngestOracle:
    """The logical column after a replayed operation prefix.

    Base rows are counted through a sorted copy of the original column,
    corrected for the rows updated since; appended rows live in fixed
    size sorted blocks, searched all at once by offsetting block ``j``
    by ``j * 2**33``.  Each read costs O(updates + blocks), not O(rows).
    """

    OFFSET = 1 << 33

    def __init__(self, values: np.ndarray) -> None:
        self.base = values.astype(np.int64)          # updates applied
        self.sorted_base = np.sort(self.base)
        self.slot: dict[int, int] = {}
        self.upd_orig = np.empty(0, dtype=np.int64)
        self.upd_cur = np.empty(0, dtype=np.int64)
        self.appended: list[np.ndarray] = []
        self._keys = np.empty(1 << 16, dtype=np.int64)    # offset, block-sorted
        self._prefix = np.zeros((1 << 16) + 1, dtype=np.int64)
        self.n_keys = 0

    @property
    def keys(self) -> np.ndarray:
        return self._keys[:self.n_keys]

    @property
    def prefix(self) -> np.ndarray:
        """Running sums over :attr:`keys` order (``prefix[0] == 0``)."""
        return self._prefix[:self.n_keys + 1]

    def append(self, batch: np.ndarray) -> None:
        batch = batch.astype(np.int64)
        self.appended.append(batch)
        ordered = np.sort(batch)
        j = len(self.appended) - 1
        n, m = self.n_keys, ordered.shape[0]
        if n + m > self._keys.shape[0]:
            grown = max(2 * self._keys.shape[0], n + m)
            self._keys = np.resize(self._keys, grown)
            self._prefix = np.resize(self._prefix, grown + 1)
        self._keys[n:n + m] = ordered + j * self.OFFSET
        self._prefix[n + 1:n + m + 1] = self._prefix[n] + np.cumsum(ordered)
        self.n_keys = n + m

    def update(self, row: int, value: int) -> None:
        if row not in self.slot:
            self.slot[row] = len(self.upd_orig)
            self.upd_orig = np.append(self.upd_orig, self.base[row])
            self.upd_cur = np.append(self.upd_cur, value)
        else:
            self.upd_cur[self.slot[row]] = value
        self.base[row] = value

    def _parts(self, low, high):
        a, b = np.searchsorted(self.sorted_base, [low, high])
        offsets = np.arange(len(self.appended), dtype=np.int64) * self.OFFSET
        lo = np.searchsorted(self.keys, low + offsets)
        hi = np.searchsorted(self.keys, high + offsets)
        orig = (self.upd_orig >= low) & (self.upd_orig < high)
        cur = (self.upd_cur >= low) & (self.upd_cur < high)
        return a, b, lo, hi, orig, cur

    def count(self, low, high) -> int:
        a, b, lo, hi, orig, cur = self._parts(low, high)
        return int(b - a + (hi - lo).sum() - orig.sum() + cur.sum())

    def sum(self, low, high) -> int:
        a, b, lo, hi, orig, cur = self._parts(low, high)
        total = int(self.sorted_base[a:b].sum())
        total += int((self.prefix[hi] - self.prefix[lo]).sum())
        return total - int(self.upd_orig[orig].sum()) + int(self.upd_cur[cur].sum())

    def first_ids(self, low, high, k: int) -> np.ndarray:
        found: list[np.ndarray] = []
        n = 0
        start = 0
        for chunk in [self.base] + self.appended:
            step = 1 << 16
            for i in range(0, chunk.shape[0], step):
                part = chunk[i: i + step]
                hits = np.flatnonzero((part >= low) & (part < high)) + start + i
                found.append(hits)
                n += hits.shape[0]
                if n >= k:
                    return np.concatenate(found)[:k]
            start += chunk.shape[0]
        return np.concatenate(found)[:k] if found else np.empty(0, np.int64)

    def logical(self) -> np.ndarray:
        return np.concatenate([self.base] + self.appended)


def _build(directory: pathlib.Path, values: np.ndarray):
    from repro.engine.executor import QueryExecutor
    from repro.storage.durability.recovery import DurableStore

    store = DurableStore(str(directory), "t")
    store.create_column(COLUMN, values)
    executor = QueryExecutor({COLUMN: store.index(COLUMN)})
    return store, executor


def _time_setups(workdir: pathlib.Path, values: np.ndarray, first: int,
                 count: int) -> list[float]:
    """Create and drop ``count`` stores one at a time (so peak RSS counts
    one live stack), in fresh directories numbered from ``first``;
    their calibrated set-up times."""
    times = []
    for i in range(first, first + count):
        seconds, (store, executor) = time_setup(
            lambda: _build(workdir / f"s{i}", values))
        times.append(seconds)
        executor.close()
        store.close()
        del store, executor
        shutil.rmtree(workdir / f"s{i}")
    return times


def _files(directory: pathlib.Path) -> dict:
    out = {}
    for path in directory.rglob("*"):
        if path.is_file():
            info = path.stat()
            out[str(path)] = (info.st_ino, info.st_size)
    return out


class Run:
    """The caller: writes on a fixed schedule of :data:`WRITE_RATE` per
    second, reads back to back in between.  Pacing the writes by the
    clock, not by the read count, makes the column's growth and the
    checkpoint cadence the same on a fast and a slow machine."""

    def __init__(self, store, executor, oracle, writes, reads):
        self.store = store
        self.executor = executor
        self.oracle = oracle
        self.writes = writes
        self.reads = reads
        self.next_write = time.perf_counter()
        self.files = _files(pathlib.Path(store.directory))
        self.reset()

    def reset(self) -> None:
        """Zero the counters (the end of the warm-up)."""
        self.write_ms: list[float] = []
        self.checkpoint_ms: list[float] = []
        self.pending: list[int] = []
        self.write_bytes = 0
        self.wal_bytes = 0
        self.wal_user_bytes = 0
        self.syncs = 0
        self.steady_writes = 0
        self.checkpoint_bytes = 0
        self.attempted = 0
        self.checkpoints = self.store.checkpoints

    def write(self, op) -> float:
        store = self.store
        wal, syncs, size = store.wal, store.wal.syncs, os.path.getsize(store.wal.path)
        checkpoints = store.checkpoints
        started = time.perf_counter()
        if op[0] == "append":
            acked = store.append(COLUMN, op[1])
            user = op[1].nbytes
        else:
            acked = store.update(COLUMN, op[1], op[2])
            user = 4
        elapsed_ms = (time.perf_counter() - started) * 1e3
        self.write_ms.append(elapsed_ms)
        if not acked:
            raise RuntimeError("write was not acknowledged with group_window=0")
        if op[0] == "append":
            self.oracle.append(op[1])
        else:
            self.oracle.update(op[1], op[2])
        self.write_bytes += user
        if store.checkpoints == checkpoints:
            self.syncs += store.wal.syncs - syncs
            self.wal_bytes += os.path.getsize(wal.path) - size
            self.wal_user_bytes += user
            self.steady_writes += 1
        else:
            # The write that crossed the threshold also ran the
            # checkpoint: count the files it (re)wrote, by new inode.
            self.checkpoint_ms.append(elapsed_ms)
            after = _files(pathlib.Path(store.directory))
            self.checkpoint_bytes += sum(
                size for path, (inode, size) in after.items()
                if self.files.get(path, (None,))[0] != inode)
            self.files = after
        index = store.index(COLUMN)
        if self.executor.index(COLUMN) is not index:
            self.executor.register(COLUMN, index)
        return elapsed_ms

    def read(self, op) -> float:
        _, kind, low, high = op
        executor = self.executor
        self.pending.append(self.store.index(COLUMN).n_pending)
        started = time.perf_counter()
        predicate = executor.predicate(COLUMN, low, high)
        if kind == "page":
            answer, _ = executor.query_paged(COLUMN, predicate, 100)
        else:
            answer = executor.aggregate(COLUMN, predicate, kind)
        latency = (time.perf_counter() - started) * 1e3
        # The oracle state is exactly the replayed prefix here; checking
        # is untimed (the clock stopped above).
        oracle = self.oracle
        what = f"ingest {kind} [{low}, {high})"
        if kind == "page":
            check_ids(answer, oracle.first_ids(low, high, 100), what)
        else:
            expected = (oracle.count(low, high) if kind == "count"
                        else oracle.sum(low, high))
            check(int(answer) == expected, f"{what}: {answer} != {expected}")
        return latency

    def call(self, tracer=None) -> tuple[float, bool]:
        """One operation, as :func:`perfbench.windows.one_window` wants
        it: ``(latency_ms, is_read)``."""
        self.attempted += 1
        now = time.perf_counter()
        if now >= self.next_write:
            # A caller that fell behind catches up by at most a second.
            self.next_write = max(self.next_write, now - 1.0) + 1.0 / WRITE_RATE
            return self.write(next(self.writes)), False
        op = next(self.reads)
        if tracer is None:
            return self.read(op), True
        with tracer.root(key=op[1]):
            return self.read(op), True


def run(seed: int, seconds: float, trace: bool, rows: int = ROWS) -> dict:
    from repro.storage.durability.recovery import DurableStore

    data = inputs.ingest_inputs(seed, rows)
    workdir = TMP / f"ingest-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        setups = _time_setups(workdir, data.values, 0, SETUPS - 1)
        built_s, (store, executor) = time_setup(
            lambda: _build(workdir / "live", data.values))
        setups.append(built_s)
        oracle = IngestOracle(data.values)
        work = Run(store, executor, oracle,
                   inputs.ingest_writes(data, APPEND_ROWS),
                   inputs.ingest_reads(data))
        try:
            measure(WARMUP_SECONDS, work.call)
            work.reset()
            if not trace:
                windows = measure(seconds, work.call)
            else:
                tracer = Tracer()
                before = stats_snapshot(executor)
                windows, traced = alternate(
                    seconds, lambda on: work.call(tracer if on else None),
                    lambda: install_program(tracer), tracer.uninstall)
                after = stats_snapshot(executor)
            checkpoints = store.checkpoints - work.checkpoints
            peak_rss = peak_rss_mb()      # before the reopen below
        finally:
            executor.close()
            store.close()

        started = time.perf_counter()
        reopened = DurableStore(str(store.store.root), "t")
        reopen_ms = (time.perf_counter() - started) * 1e3
        try:
            logical = reopened.index(COLUMN)
            expected = oracle.logical()
            check(logical.n_rows == expected.shape[0],
                  f"reopened store has {logical.n_rows} rows, "
                  f"acknowledged {expected.shape[0]}")
            check(np.array_equal(
                logical.values_at(np.arange(logical.n_rows)), expected),
                "reopened store lost an acknowledged mutation")
            index_mb = logical.nbytes / MB
        finally:
            reopened.close()
        if not trace:
            # Set up again half a minute after the first burst (see SETUPS).
            setups += _time_setups(workdir, data.values, SETUPS, SETUPS)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    latencies, ops_per_s = pooled(windows, per_busy=True, select=pairwise)
    raw = pooled(windows, per_busy=True, select=pairwise, calibrated=False)[0]
    writes = len(work.write_ms)
    reads = work.attempted - writes
    info = {
        "samples": len(latencies),
        "failed_frac": 0.0,
        "raw_p50_ms": pct(raw, 50),
        "raw_p99_ms": pct(raw, 99),
        "calibration_scale": median_scale(windows),
        "reads": reads,
        "writes": writes,
        "write_share": writes / max(1, work.attempted),
        "checkpoints": checkpoints,
        "write_p50_ms": pct(work.write_ms, 50),
        "write_p99_ms": pct(work.write_ms, 99),
        "steal_share": steal_share(windows),
        "flush_policy": "group_window=0 (fsync per mutation)",
    }
    result = {"attempted": work.attempted, "failed": 0, "info": info}
    if not trace:
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
    layers.update({
        "delta.pending_rows": float(np.mean(work.pending)),
        "write.p50_ms": info["write_p50_ms"],
        "write.p99_ms": info["write_p99_ms"],
        "wal.syncs_per_write": work.syncs / max(1, work.steady_writes),
        "wal.bytes_per_user_byte": work.wal_bytes / max(1, work.wal_user_bytes),
        "checkpoint.count": float(checkpoints),
        "checkpoint.ms": float(np.mean(work.checkpoint_ms or [0.0])),
        "checkpoint.bytes_per_user_byte": work.checkpoint_bytes / max(1, work.write_bytes),
        "recovery.reopen_ms": reopen_ms,
        "mem.column_mb": expected.shape[0] * data.values.itemsize / MB,
        "mem.index_mb": index_mb,
        "trace.coverage": coverage(records),
        "trace.overhead": pct(pooled(traced, select=pairwise)[0], 50) / pct(latencies, 50),
    })
    result["layers"] = layers
    return result
