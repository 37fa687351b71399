"""Sharded parallel evaluation of imprint queries.

The paper's Section 7 observes that imprints parallelise cleanly over
cacheline-aligned partitions; ``core/parallel.py`` already exploits
that for *construction*.  This module does the same for *queries*:
:class:`ShardedColumnImprints` splits the compressed index into
cacheline-aligned shards, evaluates the compressed-domain kernel per
shard on a thread pool (NumPy releases the GIL inside the bitwise and
gather kernels), and stitches the per-shard answers back together.

Correctness is the whole design: the shards are *views sliced out of
the one global compressed index* (built exactly like the unsharded
:class:`~repro.core.index.ColumnImprints`), not independently built
indexes.  Independently compressed shards would cut vector runs at
shard boundaries and change the Figure 11 probe counts; slicing the
global dictionary preserves the stored vectors bit-for-bit, and the
stitch step re-merges boundary-split runs, so ids *and* counters are
identical to the unsharded index — differential-tested property.

Shard geometry invariants:

* every shard boundary is a cacheline boundary (a cacheline split
  across shards would need its imprint vector in two places);
* interior shards cover whole cachelines; only the last shard may end
  on a ragged tail, exactly like the unsharded column;
* per-shard answers are locally sorted and shards are disjoint and
  ordered, so the global id list is a plain concatenation — no final
  sort.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ..index_base import QueryResult, QueryStats, SecondaryIndex
from ..predicate import RangePredicate
from ..storage.column import Column
from ..core.aggregates import (
    AGGREGATE_OPS,
    MOMENT_OPS,
    aggregate_candidates,
    aggregate_identity,
    candidate_moments,
    combine_grouped,
    combine_partials,
    combine_topk,
    finalize_grouped,
    grouped_candidates,
    topk_candidates,
)
from ..core.builder import ImprintsData
from ..core.dictionary import CachelineDictionary
from ..core.index import ColumnImprints
from ..core.masks import cached_masks
from ..core.parallel import default_workers, partition_bounds
from ..core.query import (
    _overlay_state,
    fresh_query_stats,
    materialize_ranges,
    query_batch,
    ranges_for_masks,
    take_from_ranges,
)
from ..core.ranges import CandidateRanges, coalesce_ranges
from ..core.rowset import RowSet

__all__ = ["ImprintShard", "ShardedColumnImprints", "slice_imprints"]

_U64 = np.uint64
_LOW64 = (1 << 64) - 1
#: Least stored imprint vectors per shard for which
#: :attr:`ShardedColumnImprints.dispatch_mode` fans queries out on the
#: thread pool.  Measured on a 2-vCPU VM, two shards of a 2M-row int32
#: random walk with a growing share of random values (count and sum of
#: 0.1-20% predicates): at 11k-35k vectors per shard the pool ran
#: 1.2-2.4x slower than inline, at 42k-52k the two were even, and at
#: 60k-62.5k (a high-entropy column, whose imprints do not compress)
#: the pool ran 1.2-1.8x faster.
POOL_MIN_VECTORS = 48 * 1024


@dataclass(frozen=True, eq=False)
class ImprintShard:
    """One cacheline-aligned slice of a compressed imprint index.

    Attributes
    ----------
    cl_start, cl_stop:
        Global half-open cacheline interval the shard covers.
    value_start, value_stop:
        The same interval in value-id space (``value_stop`` is clamped
        to the column length on the last shard).
    data:
        Shard-local :class:`ImprintsData`: the global stored vectors of
        the interval (a zero-copy slice) with a re-based dictionary, so
        every compressed-domain kernel runs on it unchanged.
    """

    cl_start: int
    cl_stop: int
    value_start: int
    value_stop: int
    data: ImprintsData

    @property
    def n_cachelines(self) -> int:
        return self.cl_stop - self.cl_start


def slice_imprints(data: ImprintsData, n_shards: int) -> list[ImprintShard]:
    """Cut one compressed index into cacheline-aligned shard views.

    Stored rows are never copied or re-compressed — each shard
    references a contiguous slice of the global vector array, and a run
    crossing a shard boundary contributes a clipped dictionary entry to
    both sides (the query stitch re-merges the pieces).  Cost is
    O(stored rows), independent of the number of cachelines.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    vpc = data.values_per_cacheline
    bounds = partition_bounds(data.n_values, vpc, n_shards)
    span_starts, span_stops = data.dictionary.row_cacheline_spans()
    shards: list[ImprintShard] = []
    for value_start, value_stop in bounds:
        cl_start = value_start // vpc
        cl_stop = -(-value_stop // vpc)
        first = int(np.searchsorted(span_stops, cl_start, side="right"))
        last = int(np.searchsorted(span_starts, cl_stop, side="left"))
        starts = np.maximum(span_starts[first:last], cl_start)
        stops = np.minimum(span_stops[first:last], cl_stop)
        lengths = stops - starts
        dictionary = CachelineDictionary(
            counts=lengths.astype(np.uint32), repeats=lengths > 1
        )
        shard_data = ImprintsData(
            imprints=data.imprints[first:last],
            dictionary=dictionary,
            histogram=data.histogram,
            n_values=value_stop - value_start,
            values_per_cacheline=vpc,
        )
        shards.append(
            ImprintShard(
                cl_start=cl_start,
                cl_stop=cl_stop,
                value_start=value_start,
                value_stop=value_stop,
                data=shard_data,
            )
        )
    return shards


class ShardedColumnImprints(SecondaryIndex):
    """A column imprints index that evaluates queries shard-parallel.

    Wraps a regular :class:`ColumnImprints` (construction, appends,
    saturation overlay and the rebuild policy are all delegated, so the
    compressed structure is byte-identical to the unsharded index) and
    adds a sharded query path: per-shard compressed-domain kernels on a
    thread pool, per-shard materialisation, and an O(shards) stitch.

    Parameters
    ----------
    column:
        The column to index.
    n_shards:
        Number of cacheline-aligned shards (default: one per worker).
    n_workers:
        Thread-pool width (default: :func:`default_workers`).
    **imprint_kwargs:
        Forwarded to :class:`ColumnImprints` (``max_bins``,
        ``sample_size``, ``rng``, ...), so a sharded and an unsharded
        index built with the same arguments share the same binning.
    """

    kind = "imprints-sharded"

    def __init__(
        self,
        column: Column,
        n_shards: int | None = None,
        n_workers: int | None = None,
        **imprint_kwargs,
    ) -> None:
        self._n_workers = n_workers if n_workers is not None else default_workers()
        self._n_shards = n_shards if n_shards is not None else self._n_workers
        if self._n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {self._n_shards}")
        self._inner = ColumnImprints(column, **imprint_kwargs)
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()
        # Shard views are sliced out of the inner index's snapshot and
        # rebuilt only when that snapshot changes (append/rebuild);
        # per-shard overlay prework additionally tracks the version
        # counter (updates mutate the overlay without a new snapshot).
        self._shards: list[ImprintShard] | None = None
        self._shards_data: ImprintsData | None = None
        self._overlay_states: list | None = None
        self._states_version = -1

    # ------------------------------------------------------------------
    # delegation to the inner (unsharded) index
    # ------------------------------------------------------------------
    @property
    def column(self) -> Column:
        return self._inner.column

    @column.setter
    def column(self, value: Column) -> None:  # SecondaryIndex protocol
        self._inner.column = value

    @property
    def inner(self) -> ColumnImprints:
        """The wrapped unsharded index (the differential-test oracle)."""
        return self._inner

    @property
    def data(self) -> ImprintsData:
        return self._inner.data

    @property
    def histogram(self):
        return self._inner.histogram

    @property
    def bins(self) -> int:
        return self._inner.bins

    @property
    def nbytes(self) -> int:
        return self._inner.nbytes

    @property
    def version(self) -> int:
        return self._inner.version

    def overlay_state(self):
        """The inner index's cached overlay prework (whole-index form).

        Kernels that are not shard-parallelised yet (e.g.
        :func:`repro.core.inlist.query_in_list`) consume the sharded
        index through the plain :class:`ColumnImprints` query surface.
        """
        return self._inner.overlay_state()

    @property
    def cacheline_aggregates(self):
        """The inner index's aggregate sidecar (shards share the global
        prefix-sum table; per-shard answers are shifted to global ids
        before consuming it)."""
        return self._inner.cacheline_aggregates

    @property
    def saturation(self) -> float:
        return self._inner.saturation

    @property
    def needs_rebuild(self) -> bool:
        return self._inner.needs_rebuild

    def append(self, values) -> None:
        self._inner.append(values)

    def note_update(self, value_id: int, new_value) -> None:
        self._inner.note_update(value_id, new_value)

    def note_delete(self, value_id: int) -> None:
        self._inner.note_delete(value_id)

    def rebuild(self, rng=None) -> None:
        self._inner.rebuild(rng=rng)

    def attach_group_column(self, name: str, group) -> None:
        """Register a GROUP BY column on the inner index (shards share
        the global group histograms)."""
        self._inner.attach_group_column(name, group)

    def group_column(self, name: str):
        return self._inner.group_column(name)

    @property
    def group_column_names(self) -> list[str]:
        return self._inner.group_column_names

    def append_group(self, name: str, labels=None, codes=None) -> None:
        self._inner.append_group(name, labels=labels, codes=codes)

    # ------------------------------------------------------------------
    # shard management
    # ------------------------------------------------------------------
    @property
    def shards(self) -> list[ImprintShard]:
        """Current shard views (re-sliced after every new snapshot)."""
        data = self._inner.data
        if self._shards is None or self._shards_data is not data:
            self._shards = slice_imprints(data, self._n_shards)
            self._shards_data = data
            self._overlay_states = None
        return self._shards

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def dispatch_mode(self) -> str:
        """How queries are evaluated: ``"pool"`` (shard fan-out on the
        thread pool) or ``"inline"`` (delegated to the inner unsharded
        index, bit-identical by construction).

        The choice follows the index's work, not the configured width
        alone: the pool is used when there are several shards and
        workers *and* each shard holds at least
        :data:`POOL_MIN_VECTORS` stored imprint vectors.  A shard's
        mask pass is proportional to its stored vectors, and a column
        whose imprints barely compress is a high-entropy column whose
        value check spans nearly the whole shard; on a well-compressed
        (clustered) column each shard's work is smaller than the
        fan-out's cost.  Re-evaluated per query, so appends that grow
        the index can move it to the pool.  The throughput bench
        records this mode in ``BENCH_throughput.json``.
        """
        if self._n_shards == 1 or self._n_workers == 1:
            return "inline"
        stored = self._inner.data.imprints.shape[0]
        return "pool" if stored >= POOL_MIN_VECTORS * self._n_shards else "inline"

    def _shard_overlay_states(self) -> list:
        """Per-shard overlay prework, cached until the index mutates.

        The version is read *before* the overlay snapshot and the
        states are stamped with it, so a ``note_update`` racing this
        rebuild can only leave a stamp that is already stale — the next
        query sees the mismatch and rebuilds, never serving prework
        that silently misses an update.  (Full mutate-while-serving
        synchronisation is the caller's job, as everywhere else in the
        library.)
        """
        shards = self.shards  # may invalidate _overlay_states
        if (
            self._overlay_states is None
            or self._states_version != self._inner.version
        ):
            version = self._inner.version
            overlay = dict(self._inner._overlay)
            states = []
            for shard in shards:
                local = {
                    line - shard.cl_start: bits
                    for line, bits in overlay.items()
                    if shard.cl_start <= line < shard.cl_stop
                }
                states.append(
                    _overlay_state(shard.data, local) if local else None
                )
            self._overlay_states = states
            self._states_version = version
        return self._overlay_states

    def _map(self, task, n_shards: int):
        """Run ``task`` over shard indices, on the pool when it pays off."""
        if n_shards == 1 or self._n_workers == 1:
            return [task(i) for i in range(n_shards)]
        if self._pool is None:
            # Concurrent first queries (an executor dispatching several
            # batches) must not each spawn a pool.
            with self._pool_lock:
                if self._pool is None:
                    self._pool = ThreadPoolExecutor(
                        max_workers=self._n_workers,
                        thread_name_prefix="imprint-shard",
                    )
        return list(self._pool.map(task, range(n_shards)))

    def close(self) -> None:
        """Shut down the shard thread pool (idempotent)."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "ShardedColumnImprints":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # sharded query paths
    # ------------------------------------------------------------------
    def _stitch(
        self, locals_: list[QueryResult], stats: QueryStats
    ) -> QueryResult:
        """Stitch per-shard answers in the compressed domain.

        Per-shard answers are :class:`RowSet`-backed; the global answer
        is the concatenation of their range endpoints and exception
        chunks shifted by each shard's id offset — O(shards + ranges),
        never O(ids).  The materialisation counters are summed onto the
        (global) probe counters.
        """
        shards = self.shards
        parts: list = []
        offsets: list[int] = []
        for shard, local in zip(shards, locals_):
            stats.value_comparisons += local.stats.value_comparisons
            stats.cachelines_fetched += local.stats.cachelines_fetched
            stats.full_cachelines += local.stats.full_cachelines
            stats.partial_cachelines += local.stats.partial_cachelines
            stats.ids_materialized += local.stats.ids_materialized
            rowset = local.row_set
            if rowset:
                parts.append(rowset)
                offsets.append(shard.value_start)
        return QueryResult(
            rowset=RowSet.concatenate(parts, offsets), stats=stats
        ).stamp_version(self.version)

    def resolve(self, backend) -> SecondaryIndex:
        """Resolve a forced-backend override to the index that serves it.

        ``None`` and the imprints kind names (``"imprints"``,
        ``"imprints-sharded"``) resolve to this index — the normal
        sharded/inline dispatch.  A :class:`SecondaryIndex` *instance*
        resolves to itself: the delegation seam the planner's
        forced-plan escape hatch rides on, honoured identically in pool
        and inline dispatch modes (historically the inline path
        hard-coded the inner imprints index and silently ignored
        overrides).  Anything else raises ``ValueError`` so a typo'd
        backend name fails loudly instead of silently running imprints.
        """
        if backend is None or backend in ("imprints", self.kind):
            return self
        if isinstance(backend, SecondaryIndex):
            return backend
        raise ValueError(
            f"sharded imprints index cannot serve forced backend "
            f"{backend!r}; pass None, 'imprints', {self.kind!r}, or a "
            f"SecondaryIndex instance"
        )

    def query(
        self, predicate: RangePredicate, *, backend=None
    ) -> QueryResult:
        target = self.resolve(backend)
        if target is not self:
            return target.query(predicate).stamp_version(self.version)
        if self.dispatch_mode == "inline":
            # One worker (or one shard) cannot win anything from the
            # shard fan-out; the inner index is bit-identical by
            # construction and skips the per-shard overhead entirely.
            return self._inner.query(predicate)
        data = self._inner.data
        mask, innermask = cached_masks(data.histogram, predicate)
        stats = fresh_query_stats(data)
        if mask == 0 or data.n_cachelines == 0:
            return QueryResult(
                ids=np.empty(0, dtype=np.int64), stats=stats
            ).stamp_version(self.version)
        mask64 = _U64(mask)
        inner64 = _U64(~innermask & _LOW64)
        states = self._shard_overlay_states()
        shards = self.shards
        values = self.column.values

        def run(i: int) -> QueryResult:
            shard = shards[i]
            ranges = ranges_for_masks(
                shard.data,
                mask64,
                inner64,
                QueryStats(),
                overlay_state=states[i],
            )
            return materialize_ranges(
                shard.data,
                values[shard.value_start : shard.value_stop],
                predicate.matches,
                ranges,
            )

        return self._stitch(self._map(run, len(shards)), stats)

    def query_batch(self, predicates, *, backend=None) -> list[QueryResult]:
        """Shard-parallel shared-pass evaluation of many predicates.

        Each shard runs the chunked 2-D mask pass of
        :func:`repro.core.query.query_batch` over *all* predicates, so
        the work per stored vector is shared across the batch exactly
        like the unsharded path — and the shards run concurrently.
        ``backend`` is the forced-plan seam of :meth:`resolve`, honoured
        in both pool and inline dispatch modes.
        """
        predicates = list(predicates)
        if not predicates:
            return []
        target = self.resolve(backend)
        if target is not self:
            return [
                result.stamp_version(self.version)
                for result in target.query_batch(predicates)
            ]
        if self.dispatch_mode == "inline":
            return self._inner.query_batch(predicates)
        data = self._inner.data
        states = self._shard_overlay_states()
        shards = self.shards
        values = self.column.values

        def run(i: int) -> list[QueryResult]:
            shard = shards[i]
            return query_batch(
                shard.data,
                values[shard.value_start : shard.value_stop],
                predicates,
                overlay_state=states[i],
            )

        per_shard = self._map(run, len(shards))
        results = []
        for i, predicate in enumerate(predicates):
            mask, _ = cached_masks(data.histogram, predicate)
            stats = fresh_query_stats(data)
            if mask == 0 or data.n_cachelines == 0:
                results.append(
                    QueryResult(
                        ids=np.empty(0, dtype=np.int64), stats=stats
                    ).stamp_version(self.version)
                )
                continue
            results.append(
                self._stitch([shard_res[i] for shard_res in per_shard], stats)
            )
        return results

    # ------------------------------------------------------------------
    # streaming consumption — shards evaluated lazily, in shard order
    # ------------------------------------------------------------------
    def _shard_candidates(
        self, i: int, predicate: RangePredicate
    ) -> CandidateRanges:
        """One shard's candidate ranges (compressed domain, no values).

        The unit of lazy streaming: runs the mask kernel for shard
        ``i`` only — false-positive weeding is deferred to
        :func:`~repro.core.query.take_from_ranges`, which checks values
        just for the cachelines a page actually consumes.
        """
        data = self._inner.data
        mask, innermask = cached_masks(data.histogram, predicate)
        if mask == 0 or data.n_cachelines == 0:
            empty = np.empty(0, dtype=np.int64)
            return CandidateRanges(
                empty, empty, np.empty(0, dtype=bool), QueryStats()
            )
        return ranges_for_masks(
            self.shards[i].data,
            _U64(mask),
            _U64(~innermask & _LOW64),
            QueryStats(),
            overlay_state=self._shard_overlay_states()[i],
        )

    def iter_chunks(self, predicate: RangePredicate, size: int):
        """Stream the global answer as ``size``-id chunks, shard by shard.

        Shards are evaluated *lazily in shard order*: the first chunk
        costs one shard's mask kernel plus O(size) materialisation, and
        shards (or candidate ranges) past the consumer's stopping point
        are never touched at all — the top-k consumption shape.  No
        full per-shard (let alone global) id array is ever built.
        Chunks concatenate bit-identical to ``query(predicate).ids``.
        The stream is version-guarded like a cursor: mutating the index
        mid-iteration raises
        :class:`~repro.core.cursor.StaleCursorError` instead of
        silently yielding ids that mix two snapshots.
        """
        from ..core.cursor import StaleCursorError

        if size < 1:
            raise ValueError(f"chunk size must be >= 1, got {size}")
        version = self.version
        values = self.column.values
        pending: list[np.ndarray] = []
        buffered = 0
        for i in range(len(self.shards)):
            if self.version != version:
                raise StaleCursorError(
                    version, self.version, what="chunk stream"
                )
            shard = self.shards[i]
            ranges = self._shard_candidates(i, predicate)
            local_values = values[shard.value_start : shard.value_stop]
            segment = offset = 0
            while segment < ranges.n_ranges:
                if self.version != version:
                    raise StaleCursorError(
                        version, self.version, what="chunk stream"
                    )
                ids, segment, offset = take_from_ranges(
                    shard.data,
                    local_values,
                    predicate.matches,
                    ranges,
                    segment,
                    offset,
                    size,
                )
                if ids.shape[0] == 0:
                    continue
                pending.append(ids + shard.value_start)
                buffered += int(ids.shape[0])
                if buffered >= size:
                    merged = np.concatenate(pending)
                    for lo in range(0, merged.shape[0] - size + 1, size):
                        yield merged[lo : lo + size]
                    tail = merged[merged.shape[0] - (merged.shape[0] % size) :]
                    pending = [tail] if tail.size else []
                    buffered = int(tail.shape[0])
        if buffered:
            yield np.concatenate(pending) if len(pending) > 1 else pending[0]

    def page(self, predicate: RangePredicate, limit: int, cursor=None):
        """One page of the global answer: ``(ids_chunk, next_cursor)``.

        Cursor-resumable streaming over the shard walk: the cursor
        records ``(shard, candidate-range index, intra-range offset)``
        plus the index version, so successive pages pick up exactly
        where the previous one stopped — shards before the cursor are
        not re-evaluated, candidate ranges after the page are not
        materialised yet.  A cursor taken before an ``append``/
        ``note_update``/``rebuild`` raises
        :class:`~repro.core.cursor.StaleCursorError`.
        """
        from ..core.cursor import PageCursor

        if limit < 1:
            raise ValueError(f"page limit must be >= 1, got {limit}")
        version = self.version
        if cursor is None:
            shard_i = segment = offset = rank = 0
        else:
            cursor = PageCursor.parse(cursor)
            cursor.check_kind("shard")
            cursor.check_version(version)
            shard_i, segment, offset, rank = (
                cursor.shard,
                cursor.segment,
                cursor.offset,
                cursor.rank,
            )
        n_shards = len(self.shards)
        values = self.column.values
        chunks: list[np.ndarray] = []
        taken = 0
        while shard_i < n_shards and taken < limit:
            shard = self.shards[shard_i]
            ranges = self._shard_candidates(shard_i, predicate)
            ids, segment, offset = take_from_ranges(
                shard.data,
                values[shard.value_start : shard.value_stop],
                predicate.matches,
                ranges,
                segment,
                offset,
                limit - taken,
            )
            if ids.shape[0]:
                chunks.append(ids + shard.value_start)
                taken += int(ids.shape[0])
            if segment >= ranges.n_ranges:
                shard_i += 1
                segment = offset = 0
        ids = (
            np.concatenate(chunks)
            if len(chunks) > 1
            else (chunks[0] if chunks else np.empty(0, dtype=np.int64))
        )
        if shard_i >= n_shards:
            return ids, None
        return ids, PageCursor(
            rank=rank + taken,
            segment=segment,
            offset=offset,
            shard=shard_i,
            version=version,
            kind="shard",
        )

    def aggregate(self, predicate: RangePredicate, op: str):
        """Shard-parallel aggregate pushdown: combine per-shard partials.

        Each shard runs the compressed-domain kernel, shifts its
        candidate ranges to global cacheline numbers and reduces them
        through the fused
        :func:`~repro.core.aggregates.aggregate_candidates` kernel
        against the (global) per-cacheline pre-aggregates; only the
        scalar partials travel back to be combined (``SUM`` recombines
        in the 64-bit accumulator dtype, so integer wraparound stays
        bit-identical to the unsharded answer).  The moment ops
        (``avg``/``var``/``std``) travel as per-shard
        ``(count, sum, sumsq)`` tuples and finalise once globally, so
        sharding never changes the answer.
        """
        if op not in AGGREGATE_OPS:
            raise ValueError(
                f"unknown aggregate {op!r}; supported: {AGGREGATE_OPS}"
            )
        if self.dispatch_mode == "inline":
            return self._inner.aggregate(predicate, op)
        data = self._inner.data
        aggregates = self._inner.cacheline_aggregates  # build before fan-out
        mask, innermask = cached_masks(data.histogram, predicate)
        if mask == 0 or data.n_cachelines == 0:
            return aggregate_identity(op, aggregates.sum_dtype)
        values = self.column.values

        def run_shard(ranges):
            if op in MOMENT_OPS:
                return candidate_moments(
                    ranges, values, predicate, aggregates, squares=op != "avg"
                )
            return aggregate_candidates(
                ranges, values, predicate, aggregates, op
            )

        partials = self._shard_aggregate_map(mask, innermask, run_shard)
        return combine_partials(op, partials, aggregates.sum_dtype)

    def _shard_aggregate_map(self, mask, innermask, kernel):
        """Fan one aggregate kernel across shards on global-shifted
        candidate ranges; returns the per-shard partials in order."""
        mask64 = _U64(mask)
        inner64 = _U64(~innermask & _LOW64)
        states = self._shard_overlay_states()
        shards = self.shards

        def run(i: int):
            shard = shards[i]
            local = ranges_for_masks(
                shard.data,
                mask64,
                inner64,
                QueryStats(),
                overlay_state=states[i],
            )
            # Shift shard-local cacheline numbers to global ones; the
            # global pre-aggregates (and the global value array) then
            # apply unchanged.  Interior shards end on whole cachelines,
            # so the global ragged-tail clamp stays correct.
            ranges = CandidateRanges(
                local.starts + shard.cl_start,
                local.stops + shard.cl_start,
                local.full,
                local.stats,
            )
            return kernel(ranges)

        return self._map(run, len(shards))

    def aggregate_grouped(self, predicate: RangePredicate, op: str, group_by: str):
        """Shard-parallel GROUP BY pushdown.

        Each shard reduces its global-shifted candidate ranges through
        the per-cacheline group histograms
        (:func:`~repro.core.aggregates.grouped_candidates`); only the
        per-group ``(counts, sums)`` partial arrays travel back, are
        added elementwise and finalised once — identical to the
        unsharded answer, no row ids anywhere.
        """
        if self.dispatch_mode == "inline":
            return self._inner.aggregate_grouped(predicate, op, group_by)
        group = self._inner._check_group_aligned(group_by)
        data = self._inner.data
        aggregates = self._inner.cacheline_aggregates  # build before fan-out
        grouped = self._inner.grouped_aggregates(group_by)
        mask, innermask = cached_masks(data.histogram, predicate)
        if mask == 0 or data.n_cachelines == 0:
            return {}
        values = self.column.values
        codes = group.codes

        partials = self._shard_aggregate_map(
            mask,
            innermask,
            lambda ranges: grouped_candidates(
                ranges,
                values,
                codes,
                predicate,
                aggregates,
                grouped,
                with_sums=op != "count",
            ),
        )
        counts, sums = combine_grouped(partials)
        return group.render(finalize_grouped(op, counts, sums))

    def top_k(self, predicate: RangePredicate, k: int) -> list:
        """Shard-parallel ORDER-BY-value top-k.

        Each shard prunes its own candidate cachelines against its
        local running k-th value; the per-shard top-k lists merge into
        the global answer (descending), identical to the unsharded
        kernel.
        """
        if self.dispatch_mode == "inline":
            return self._inner.top_k(predicate, k)
        if k <= 0:
            return []
        data = self._inner.data
        aggregates = self._inner.cacheline_aggregates  # build before fan-out
        mask, innermask = cached_masks(data.histogram, predicate)
        if mask == 0 or data.n_cachelines == 0:
            return []
        values = self.column.values
        partials = self._shard_aggregate_map(
            mask,
            innermask,
            lambda ranges: topk_candidates(
                ranges, values, predicate, aggregates, k
            ),
        )
        return combine_topk(partials, k)

    def candidate_ranges(self, predicate: RangePredicate) -> CandidateRanges:
        """Global candidate ranges assembled from per-shard kernels.

        The per-shard ranges are shifted to global cacheline numbers and
        coalesced, which re-merges runs the shard boundaries split —
        output identical to the unsharded
        :meth:`ColumnImprints.candidate_ranges`.
        """
        if self.dispatch_mode == "inline":
            return self._inner.candidate_ranges(predicate)
        data = self._inner.data
        mask, innermask = cached_masks(data.histogram, predicate)
        stats = fresh_query_stats(data)
        if mask == 0 or data.n_cachelines == 0:
            empty = np.empty(0, dtype=np.int64)
            return CandidateRanges(empty, empty, np.empty(0, dtype=bool), stats)
        mask64 = _U64(mask)
        inner64 = _U64(~innermask & _LOW64)
        states = self._shard_overlay_states()
        shards = self.shards

        def run(i: int) -> CandidateRanges:
            return ranges_for_masks(
                shards[i].data,
                mask64,
                inner64,
                QueryStats(),
                overlay_state=states[i],
            )

        locals_ = self._map(run, len(shards))
        starts = np.concatenate(
            [r.starts + s.cl_start for r, s in zip(locals_, shards)]
        )
        stops = np.concatenate(
            [r.stops + s.cl_start for r, s in zip(locals_, shards)]
        )
        full = np.concatenate([r.full for r in locals_])
        starts, stops, full = coalesce_ranges(starts, stops, full)
        return CandidateRanges(starts, stops, full, stats)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedColumnImprints(column={self.column.name or '<anonymous>'}, "
            f"rows={len(self.column)}, shards={self._n_shards}, "
            f"workers={self._n_workers})"
        )
