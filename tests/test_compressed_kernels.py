"""The compressed-domain query engine: differential and no-expansion tests.

The production kernels must (a) answer bit-identically to the scalar
Algorithm 3 port and the brute-force scan, counters included, and
(b) never expand the cacheline dictionary — the whole point of the
run-level engine is that query cost is O(stored vectors).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import query as core_query
from repro.core import (
    ColumnImprints,
    ImprintsBuilder,
    MultiLevelImprints,
    binning,
    conjunctive_query,
    disjunctive_query,
    query_batch,
    query_in_list,
    query_ranges,
    query_scalar,
    query_vectorized,
)
from repro.core.aggregates import AGGREGATE_OPS, GROUP_OPS
from repro.core.dictionary import CachelineDictionary
from repro.engine import ShardedColumnImprints
from repro.predicate import RangePredicate
from repro.storage import Column, GroupColumn, INT

from .conftest import make_clustered, make_random
from .test_aggregates import reference


def build_data(column, seed=0):
    histogram = binning(column, rng=np.random.default_rng(seed))
    builder = ImprintsBuilder(histogram, column.values_per_cacheline)
    builder.feed(column.values)
    return builder.snapshot()


def ground_truth(column, predicate):
    return np.flatnonzero(predicate.matches(column.values)).astype(np.int64)


def assert_same_result(a, b):
    assert np.array_equal(a.ids, b.ids)
    # The O(n) two-way merge in materialize_ranges depends on the full
    # and partial id chunks each arriving sorted; the final id list
    # being strictly increasing is the observable invariant.
    if b.ids.size > 1:
        assert np.all(np.diff(b.ids) > 0)
    assert a.stats.index_probes == b.stats.index_probes
    assert a.stats.value_comparisons == b.stats.value_comparisons
    assert a.stats.full_cachelines == b.stats.full_cachelines
    assert a.stats.partial_cachelines == b.stats.partial_cachelines
    assert a.stats.cachelines_fetched == b.stats.cachelines_fetched
    assert a.stats.ids_materialized == b.stats.ids_materialized


# ----------------------------------------------------------------------
# three-way differential: scalar vs range-based vs batch
# ----------------------------------------------------------------------
class TestThreeWayDifferential:
    @pytest.mark.parametrize("make", [make_random, make_clustered])
    @pytest.mark.parametrize("seed", [21, 22])
    def test_scalar_vectorized_batch_agree(self, make, seed):
        column = Column(make(6_000, np.int32, seed=seed))
        data = build_data(column, seed=seed)
        generator = np.random.default_rng(seed)
        predicates = []
        for _ in range(12):
            lo, hi = np.sort(generator.integers(-5_000, 120_000, 2))
            predicates.append(RangePredicate.range(int(lo), int(hi), INT))
        batched = query_batch(data, column.values, predicates)
        for predicate, from_batch in zip(predicates, batched):
            scalar = query_scalar(data, column.values, predicate)
            vectorised = query_vectorized(data, column.values, predicate)
            assert np.array_equal(
                vectorised.ids, ground_truth(column, predicate)
            )
            assert_same_result(scalar, vectorised)
            assert_same_result(vectorised, from_batch)

    def test_long_runs_with_repeat_entries(self):
        column = Column(np.repeat(np.arange(40, dtype=np.int32), 500))
        data = build_data(column)
        assert bool(data.dictionary.repeats.any())
        for lo, hi in [(0, 40), (5, 6), (10, 30), (39, 200)]:
            predicate = RangePredicate.range(lo, hi, INT)
            scalar = query_scalar(data, column.values, predicate)
            vectorised = query_vectorized(data, column.values, predicate)
            assert_same_result(scalar, vectorised)

    def test_empty_and_overflow_bins(self):
        # Domain [1000, 2000): bins 0 and 63 are open-ended overflow
        # bins that no sampled value reaches.
        column = Column(make_random(4_000, np.int32, seed=9, low=1000, high=2000))
        data = build_data(column)
        for lo, hi in [(0, 500), (5_000, 9_000), (0, 10_000), (1500, 1500)]:
            predicate = RangePredicate.range(lo, hi, INT)
            scalar = query_scalar(data, column.values, predicate)
            vectorised = query_vectorized(data, column.values, predicate)
            assert np.array_equal(
                vectorised.ids, ground_truth(column, predicate)
            )
            assert np.array_equal(scalar.ids, vectorised.ids)

    def test_batch_empty_and_mixed(self):
        column = Column(make_random(2_000, np.int32, seed=30))
        data = build_data(column)
        predicates = [
            RangePredicate(9, 9),  # empty
            RangePredicate.everything(),
            RangePredicate.range(0, 1, INT),  # likely miss
            RangePredicate.range(10_000, 50_000, INT),
        ]
        batched = query_batch(data, column.values, predicates)
        assert len(batched) == len(predicates)
        for predicate, result in zip(predicates, batched):
            assert_same_result(
                result, query_vectorized(data, column.values, predicate)
            )
        assert query_batch(data, column.values, []) == []


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 400),
    n=st.integers(1, 800),
    lo=st.integers(-50, 120),
    width=st.integers(0, 150),
)
def test_batch_equals_ground_truth_property(seed, n, lo, width):
    """Randomised columns (tails, constants, tiny sizes): batch answers
    must equal the naive scan for arbitrary ranges."""
    generator = np.random.default_rng(seed)
    values = generator.integers(0, 100, n).astype(np.int16)
    column = Column(values)
    data = build_data(column, seed=seed)
    predicates = [
        RangePredicate.range(lo, lo + width, column.ctype),
        RangePredicate.range(lo + width // 2, lo + width, column.ctype),
    ]
    for predicate, result in zip(
        predicates, query_batch(data, column.values, predicates)
    ):
        assert np.array_equal(result.ids, ground_truth(column, predicate))


# ----------------------------------------------------------------------
# the saturation overlay path (Section 4.2)
# ----------------------------------------------------------------------
class TestOverlayPath:
    def test_updates_stay_correct_through_overlay(self):
        column = Column(make_clustered(8_000, np.int32, seed=40))
        index = ColumnImprints(column)
        generator = np.random.default_rng(40)
        positions = generator.integers(0, len(column), 60)
        for position in positions:
            index.note_update(int(position), int(generator.integers(0, 50_000)))
        assert index._overlay  # saturation bits actually recorded
        for _ in range(10):
            lo, hi = np.sort(generator.integers(0, 50_000, 2))
            predicate = RangePredicate.range(int(lo), int(hi), INT)
            result = index.query(predicate)
            assert np.array_equal(result.ids, ground_truth(index.column, predicate))

    def test_overlay_batch_matches_single(self):
        column = Column(make_random(5_000, np.int32, seed=41))
        index = ColumnImprints(column)
        generator = np.random.default_rng(41)
        for position in generator.integers(0, len(column), 40):
            index.note_update(int(position), int(generator.integers(0, 100_000)))
        predicates = [
            RangePredicate.range(int(lo), int(hi), INT)
            for lo, hi in np.sort(generator.integers(0, 100_000, (8, 2)), axis=1)
        ]
        for predicate, batched in zip(predicates, index.query_batch(predicates)):
            assert_same_result(batched, index.query(predicate))

    def test_overlay_adds_range_candidates(self):
        # Values 10..59: a query below the domain matches no imprint
        # until an update saturates a cacheline's overlay bits.
        column = Column((np.arange(320, dtype=np.int32) % 50) + 10)
        data = build_data(column)
        predicate = RangePredicate.range(0, 5, INT)
        base = query_ranges(data, predicate)
        assert base.n_ranges == 0
        poked = query_ranges(data, predicate, overlay={3: 1 << 0})
        lines, _ = poked.explode()
        assert 3 in set(lines.tolist())

    def test_overlay_inside_repeat_run_splits_range(self):
        # A constant column is one long repeat run; overlaying a middle
        # cacheline must split the run without disturbing neighbours.
        column = Column(np.full(64 * 16, 7, dtype=np.int32))
        index = ColumnImprints(column)
        index.note_update(40 * 16 + 3, 7)  # same value: only overlay bits
        predicate = RangePredicate.range(7, 8, INT)
        result = index.query(predicate)
        assert np.array_equal(result.ids, np.arange(len(column)))

    def test_in_list_sees_overlay(self):
        column = Column((np.arange(640, dtype=np.int32) % 50) + 100)
        index = ColumnImprints(column)
        index.note_update(37, 3)  # out-of-domain value lands in bin 0
        result = query_in_list(index, [3])
        assert 37 in result.ids.tolist()


# ----------------------------------------------------------------------
# the engine never expands the dictionary on query paths
# ----------------------------------------------------------------------
class TestNoExpansionOnQueryPath:
    @pytest.fixture()
    def no_expand(self, monkeypatch):
        def boom(self):  # pragma: no cover - the point is it never runs
            raise AssertionError("expand_rows() called on a query path")

        monkeypatch.setattr(CachelineDictionary, "expand_rows", boom)

    def test_query_paths_never_expand(self, no_expand):
        column_a = Column(make_clustered(6_000, np.int32, seed=50), name="t.a")
        column_b = Column(make_random(6_000, np.int32, seed=51), name="t.b")
        index_a = ColumnImprints(column_a)
        index_b = ColumnImprints(column_b)
        index_a.note_update(17, 12_345)  # exercise the overlay path too
        predicate_a = RangePredicate.range(5_000, 15_000, INT)
        predicate_b = RangePredicate.range(10_000, 60_000, INT)

        index_a.query(predicate_a)
        index_a.query_batch([predicate_a, predicate_b])
        index_a.candidates(predicate_a)
        index_a.candidate_ranges(predicate_a)
        query_in_list(index_a, [5_000, 5_001, 9_999])
        conjunctive_query([index_a, index_b], [predicate_a, predicate_b])
        disjunctive_query([index_a, index_b], [predicate_a, predicate_b])

    def test_multilevel_query_never_expands(self, monkeypatch):
        column = Column(make_clustered(9_000, np.int32, seed=52))
        index = MultiLevelImprints(column, fanout=8)  # build may expand

        def boom(self):  # pragma: no cover
            raise AssertionError("expand_rows() called on a query path")

        monkeypatch.setattr(CachelineDictionary, "expand_rows", boom)
        predicate = RangePredicate.range(5_000, 15_000, INT)
        result = index.query(predicate)
        assert np.array_equal(result.ids, ground_truth(column, predicate))


# ----------------------------------------------------------------------
# dictionary run-boundary caches
# ----------------------------------------------------------------------
class TestDictionaryCaches:
    def test_row_spans_match_expand_rows(self):
        column = Column(make_clustered(7_000, np.int32, seed=60))
        data = build_data(column)
        dictionary = data.dictionary
        starts, stops = dictionary.row_cacheline_spans()
        rows = dictionary.expand_rows()
        for row in range(dictionary.n_imprint_rows):
            covered = np.flatnonzero(rows == row)
            assert covered.size == stops[row] - starts[row]
            if covered.size:
                assert covered[0] == starts[row]
                assert covered[-1] == stops[row] - 1

    def test_rows_of_cachelines_match_expand_rows(self):
        column = Column(np.repeat(np.arange(30, dtype=np.int32), 333))
        data = build_data(column)
        dictionary = data.dictionary
        rows = dictionary.expand_rows()
        lines = np.arange(dictionary.n_cachelines, dtype=np.int64)
        assert np.array_equal(dictionary.rows_of_cachelines(lines), rows)

    def test_expansions_are_memoized(self):
        column = Column(make_random(3_000, np.int32, seed=61))
        dictionary = build_data(column).dictionary
        assert dictionary.expand_rows() is dictionary.expand_rows()
        assert dictionary.row_offsets() is dictionary.row_offsets()
        first = dictionary.row_cacheline_spans()
        assert first[0] is dictionary.row_cacheline_spans()[0]
        assert not dictionary.expand_rows().flags.writeable


# ----------------------------------------------------------------------
# dense vs gather value checks
# ----------------------------------------------------------------------
#: DENSE_SHARE values forcing each branch of dense_span: 0 takes the
#: contiguous span pass whenever a partial line exists, inf never does.
BRANCHES = {"dense": 0.0, "gather": math.inf}
N_GROUPS = 5


def entropy_with_runs(n_lines=640, seed=70):
    """High-entropy lines (every one partial for a mid-range predicate)
    with constant runs whose lines the innermask proves full, so full
    ranges sit inside the dense span; the length leaves a ragged tail."""
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 100_000, n_lines * 16 + 9).astype(np.int32)
    for first, last in [(40, 43), (200, 201), (333, 340), (600, 602)]:
        values[first * 16 : last * 16] = 50_000
    return values


def branch_predicates():
    return [
        RangePredicate.range(20_000, 80_000, INT),
        RangePredicate.range(49_000, 51_000, INT),
        RangePredicate.range(-math.inf, 60_000, INT),
        RangePredicate.range(35_000, math.inf, INT),
        RangePredicate.everything(),
        RangePredicate.range(200_000, 300_000, INT),
    ]


def each_branch(monkeypatch):
    for name, share in BRANCHES.items():
        monkeypatch.setattr(core_query, "DENSE_SHARE", share)
        yield name


def grouped_oracle(values, codes, mask, op):
    out = {}
    for code in np.unique(codes[mask]):
        member = values[mask & (codes == code)].astype(np.int64)
        total = int(member.sum())
        out[int(code)] = {
            "count": member.shape[0], "sum": total,
            "avg": total / member.shape[0],
        }[op]
    return out


class TestDenseAndGatherBranches:
    """Every consumer answers the oracle on both value-check branches,
    with identical Figure 11 counters, sharded or not."""

    def test_fixture_puts_full_ranges_inside_a_dense_span(self):
        values = entropy_with_runs()
        index = ColumnImprints(Column(values))
        ranges = index.candidate_ranges(branch_predicates()[0])
        full_starts, _, part_starts, part_stops = ranges.split()
        a, b = core_query.dense_span(part_starts, part_stops)
        assert np.any((full_starts > a) & (full_starts < b))
        assert part_stops[-1] == index.data.n_cachelines  # ragged tail

    def test_dense_span_rule(self, monkeypatch):
        monkeypatch.setattr(core_query, "DENSE_SHARE", 0.25)
        span = core_query.dense_span
        empty = np.empty(0, dtype=np.int64)
        assert span(empty, empty) is None
        # A clustered answer: partial lines only at the two edges.
        assert span(np.array([10, 900]), np.array([12, 902])) is None
        assert span(np.array([10, 20]), np.array([15, 30])) == (10, 30)

    @pytest.mark.parametrize("n_shards", [1, 2, 3, 5, 8])
    def test_ids_and_counters(self, monkeypatch, n_shards):
        values = entropy_with_runs(seed=70 + n_shards)
        column = Column(values)
        serial = ColumnImprints(column)
        stats = {}
        sharded = ShardedColumnImprints(column, n_shards=n_shards, n_workers=2)
        with sharded:
            for name in each_branch(monkeypatch):
                for i, predicate in enumerate(branch_predicates()):
                    want = ground_truth(column, predicate)
                    one = serial.query(predicate)
                    many = sharded.query(predicate)
                    batched = sharded.query_batch([predicate])[0]
                    for got in (one, many, batched):
                        assert np.array_equal(got.ids, want), (name, i)
                        assert got.stats == one.stats, (name, i)
                    stats.setdefault(i, []).append(one.stats)
        for i, (dense, gather) in stats.items():
            assert dense == gather, i

    @pytest.mark.parametrize("n_shards", [1, 4, 7])
    def test_aggregates_grouped_and_top_k(self, monkeypatch, n_shards):
        values = entropy_with_runs(seed=80 + n_shards)
        codes = np.random.default_rng(n_shards).integers(
            0, N_GROUPS, values.shape[0]
        )
        column = Column(values)
        serial = ColumnImprints(column)
        sharded = ShardedColumnImprints(column, n_shards=n_shards, n_workers=2)
        with sharded:
            for index in (serial, sharded):
                group = GroupColumn.from_codes(codes, N_GROUPS)
                index.attach_group_column("g", group)
            for name in each_branch(monkeypatch):
                for predicate in branch_predicates():
                    mask = predicate.matches(values)
                    ids = np.flatnonzero(mask)
                    top = sorted(values[ids].tolist(), reverse=True)[:20]
                    for index in (serial, sharded):
                        for op in AGGREGATE_OPS:
                            want = reference(values, ids, op)
                            got = index.aggregate(predicate, op)
                            assert got == want, (name, op)
                        for op in GROUP_OPS:
                            want = grouped_oracle(values, codes, mask, op)
                            got = index.aggregate_grouped(predicate, op, "g")
                            assert got == want, (name, op)
                        assert index.top_k(predicate, 20) == top, name

    def test_in_list(self, monkeypatch):
        values = entropy_with_runs(seed=90)
        index = ColumnImprints(Column(values))
        members = [50_000, 7, 99_999] + list(range(10_000, 90_000, 997))
        results = {}
        for name in each_branch(monkeypatch):
            result = query_in_list(index, members)
            want = np.flatnonzero(np.isin(values, members))
            assert np.array_equal(result.ids, want), name
            results[name] = result.stats
        assert results["dense"] == results["gather"]

    @pytest.mark.parametrize("n_shards", [1, 3])
    def test_updates_and_ragged_appends(self, monkeypatch, n_shards):
        rng = np.random.default_rng(95 + n_shards)
        column = Column(entropy_with_runs(n_lines=300, seed=95))
        serial = ColumnImprints(column)
        sharded = ShardedColumnImprints(column, n_shards=n_shards, n_workers=2)
        with sharded:
            for round_ in range(3):
                for index in (serial, sharded):
                    # Build the sidecar, so the mutations maintain it.
                    index.aggregate(branch_predicates()[0], "sum")
                appended = rng.integers(-5_000, 120_000, 16 * 7 + 5)
                appended = appended.astype(np.int32)
                serial.append(appended)
                sharded.append(appended)
                for _ in range(25):
                    victim = int(rng.integers(0, len(serial.column)))
                    value = int(rng.integers(-5_000, 120_000))
                    serial.note_update(victim, value)
                    sharded.note_update(victim, value)
                assert serial._overlay
                current = serial.column.values
                assert np.array_equal(sharded.column.values, current)
                for name in each_branch(monkeypatch):
                    for predicate in branch_predicates():
                        ids = np.flatnonzero(predicate.matches(current))
                        for index in (serial, sharded):
                            got = index.query(predicate).ids
                            assert np.array_equal(got, ids), (name, round_)
                            for op in AGGREGATE_OPS:
                                want = reference(current, ids, op)
                                got = index.aggregate(predicate, op)
                                assert got == want, (name, op, round_)
