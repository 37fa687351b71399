"""Shard equivalence: the sharded engine must be invisible in answers.

``ShardedColumnImprints`` slices the one global compressed index into
cacheline-aligned shard views and stitches per-shard answers back; the
contract is that ids *and* every Figure 11 counter are bit-identical to
the unsharded ``ColumnImprints`` — across shard counts, ragged tails,
appends and saturation overlays.  Property-tested, as the seam between
shards is exactly where off-by-one bugs live.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ColumnImprints
from repro.engine import ShardedColumnImprints, slice_imprints
from repro.engine import sharded as sharded_engine
from repro.predicate import RangePredicate
from repro.storage import INT, Column

from .conftest import make_clustered, make_random


def assert_identical(expected, got):
    """ids and all stats equal — and the id list is sorted (the O(n)
    merge in materialize_ranges relies on chunk sortedness)."""
    assert np.array_equal(expected.ids, got.ids)
    assert expected.stats == got.stats
    if got.ids.size > 1:
        assert np.all(np.diff(got.ids) > 0)


def predicates_for(column, rng, count=10):
    lo = int(column.values.min()) - 50
    hi = int(column.values.max()) + 50
    predicates = [
        RangePredicate.range(*sorted(int(v) for v in rng.integers(lo, hi, 2)), INT)
        for _ in range(count)
    ]
    predicates.append(RangePredicate(9, 9))  # empty
    predicates.append(RangePredicate.everything())
    predicates.append(RangePredicate.point(int(column.values[0]), INT))
    return predicates


# ----------------------------------------------------------------------
# the slicing itself
# ----------------------------------------------------------------------
class TestSliceImprints:
    def test_shards_tile_the_index(self):
        column = Column(make_clustered(10_000, np.int32, seed=3))
        index = ColumnImprints(column)
        shards = slice_imprints(index.data, 4)
        assert shards[0].cl_start == 0
        assert shards[-1].cl_stop == index.data.n_cachelines
        for left, right in zip(shards, shards[1:]):
            assert left.cl_stop == right.cl_start
            assert left.value_stop == right.value_start
        assert sum(s.data.n_values for s in shards) == len(column)
        for shard in shards:
            assert shard.data.dictionary.n_cachelines == shard.n_cachelines
            # shard vectors are zero-copy views of the global array
            assert shard.data.imprints.base is not None

    def test_expanded_vectors_roundtrip(self):
        # Expanding every shard and concatenating must reproduce the
        # global per-cacheline vectors exactly.
        column = Column(np.repeat(np.arange(50, dtype=np.int32), 400))
        index = ColumnImprints(column)
        assert bool(index.data.dictionary.repeats.any())
        shards = slice_imprints(index.data, 3)
        stitched = np.concatenate([s.data.expand_vectors() for s in shards])
        assert np.array_equal(stitched, index.data.expand_vectors())

    def test_more_shards_than_cachelines(self):
        column = Column(np.arange(40, dtype=np.int32))  # 3 cachelines
        index = ColumnImprints(column)
        shards = slice_imprints(index.data, 8)
        assert len(shards) == index.data.n_cachelines
        assert all(s.n_cachelines == 1 for s in shards)

    def test_invalid_shard_count(self):
        column = Column(np.arange(100, dtype=np.int32))
        with pytest.raises(ValueError, match="n_shards"):
            slice_imprints(ColumnImprints(column).data, 0)
        with pytest.raises(ValueError, match="n_shards"):
            ShardedColumnImprints(column, n_shards=0)


# ----------------------------------------------------------------------
# differential equivalence
# ----------------------------------------------------------------------
class TestShardEquivalence:
    @pytest.mark.parametrize("make", [make_random, make_clustered])
    @pytest.mark.parametrize("n_shards", [1, 3, 4])
    def test_query_matches_unsharded(self, make, n_shards):
        column = Column(make(7_321, np.int32, seed=11))  # ragged tail
        plain = ColumnImprints(column)
        rng = np.random.default_rng(11)
        with ShardedColumnImprints(column, n_shards=n_shards, n_workers=2) as sharded:
            for predicate in predicates_for(column, rng):
                assert_identical(plain.query(predicate), sharded.query(predicate))

    def test_query_batch_matches_unsharded(self):
        column = Column(make_clustered(9_500, np.int32, seed=4))
        plain = ColumnImprints(column)
        rng = np.random.default_rng(4)
        predicates = predicates_for(column, rng, count=20)
        with ShardedColumnImprints(column, n_shards=4, n_workers=2) as sharded:
            for expected, got in zip(
                plain.query_batch(predicates), sharded.query_batch(predicates)
            ):
                assert_identical(expected, got)
            assert sharded.query_batch([]) == []

    def test_candidate_ranges_match_unsharded(self):
        column = Column(make_clustered(8_000, np.int32, seed=8))
        plain = ColumnImprints(column)
        rng = np.random.default_rng(8)
        with ShardedColumnImprints(column, n_shards=5, n_workers=2) as sharded:
            for predicate in predicates_for(column, rng):
                expected = plain.candidate_ranges(predicate)
                got = sharded.candidate_ranges(predicate)
                assert np.array_equal(expected.starts, got.starts)
                assert np.array_equal(expected.stops, got.stops)
                assert np.array_equal(expected.full, got.full)
                assert expected.stats == got.stats

    @settings(deadline=None, max_examples=20)
    @given(
        n=st.integers(500, 3_000),
        n_shards=st.integers(1, 8),
        seed=st.integers(0, 50),
        n_updates=st.integers(0, 12),
        n_appended=st.integers(0, 200),
    )
    def test_property_with_appends_and_overlays(
        self, n, n_shards, seed, n_updates, n_appended
    ):
        rng = np.random.default_rng(seed)
        column = Column(make_random(n, np.int32, seed=seed))
        plain = ColumnImprints(column)
        with ShardedColumnImprints(column, n_shards=n_shards, n_workers=2) as sharded:
            # saturating in-place updates on both
            for value_id, new_value in zip(
                rng.integers(0, n, n_updates), rng.integers(0, 200_000, n_updates)
            ):
                plain.note_update(int(value_id), int(new_value))
                sharded.note_update(int(value_id), int(new_value))
            # streaming appends on both (ragged tails re-emitted)
            if n_appended:
                extra = rng.integers(0, 200_000, n_appended).astype(np.int32)
                plain.append(extra)
                sharded.append(extra)
            assert sharded.version == plain.version
            assert sharded.saturation == pytest.approx(plain.saturation)
            for predicate in predicates_for(sharded.column, rng, count=6):
                assert_identical(plain.query(predicate), sharded.query(predicate))

    def test_rebuild_resets_both_sides(self):
        column = Column(make_random(2_000, np.int32, seed=2))
        with ShardedColumnImprints(column, n_shards=3, n_workers=1) as sharded:
            for value_id in range(0, 2_000, 50):
                sharded.note_update(value_id, 1)
            old_shards = sharded.shards
            sharded.rebuild(rng=np.random.default_rng(2))
            assert sharded.shards is not old_shards  # views re-sliced
            plain = ColumnImprints(sharded.column, rng=np.random.default_rng(2))
            rng = np.random.default_rng(3)
            for predicate in predicates_for(sharded.column, rng, count=5):
                assert np.array_equal(
                    plain.query(predicate).ids, sharded.query(predicate).ids
                )

    def test_in_list_queries_work_on_sharded_index(self):
        from repro.core import query_in_list

        column = Column(make_random(4_000, np.int32, seed=12))
        members = [int(v) for v in column.values[:5]] + [-1]
        plain = ColumnImprints(column)
        with ShardedColumnImprints(column, n_shards=3, n_workers=1) as sharded:
            plain.note_update(7, int(column.values[0]))
            sharded.note_update(7, int(column.values[0]))
            assert_identical(
                query_in_list(plain, members), query_in_list(sharded, members)
            )

    def test_delegated_metadata(self):
        column = Column(make_random(3_000, np.int32, seed=6), name="t.c")
        with ShardedColumnImprints(column, n_shards=2, n_workers=1) as sharded:
            plain = ColumnImprints(column)
            assert sharded.nbytes == plain.nbytes
            assert sharded.bins == plain.bins
            assert sharded.histogram.bins == plain.histogram.bins
            assert not sharded.needs_rebuild
            assert sharded.kind == "imprints-sharded"


# ----------------------------------------------------------------------
# pool or inline, from the index's work
# ----------------------------------------------------------------------
class TestDispatchByWork:
    def test_pool_needs_enough_stored_vectors_per_shard(self, monkeypatch):
        monkeypatch.setattr(sharded_engine, "POOL_MIN_VECTORS", 300)
        wide = Column(make_random(20_000, np.int32, seed=101))
        narrow = Column(np.repeat(np.arange(40, dtype=np.int32), 500))
        with ShardedColumnImprints(wide, n_shards=2, n_workers=2) as index:
            assert index.data.imprints.shape[0] >= 2 * 300
            assert index.dispatch_mode == "pool"
        with ShardedColumnImprints(wide, n_shards=8, n_workers=2) as index:
            assert index.data.imprints.shape[0] < 8 * 300
            assert index.dispatch_mode == "inline"
        with ShardedColumnImprints(narrow, n_shards=2, n_workers=8) as index:
            assert index.data.imprints.shape[0] < 2 * 300
            assert index.dispatch_mode == "inline"
        with ShardedColumnImprints(wide, n_shards=2, n_workers=1) as index:
            assert index.dispatch_mode == "inline"

    def test_default_keeps_small_indexes_inline(self, monkeypatch):
        monkeypatch.undo()  # the suite pins the pool; use the real rule
        column = Column(make_random(20_000, np.int32, seed=103))
        predicate = RangePredicate.range(1_000, 60_000, INT)
        with ShardedColumnImprints(column, n_shards=4, n_workers=4) as index:
            assert index.dispatch_mode == "inline"
            assert_identical(
                ColumnImprints(column).query(predicate), index.query(predicate)
            )
            assert index.aggregate(predicate, "count") == predicate.count(column.values)
            assert index._pool is None

    def test_appends_move_the_index_to_the_pool(self, monkeypatch):
        monkeypatch.setattr(sharded_engine, "POOL_MIN_VECTORS", 300)
        column = Column(np.repeat(np.arange(8, dtype=np.int32), 500))
        rng = np.random.default_rng(104)
        with ShardedColumnImprints(column, n_shards=2, n_workers=2) as index:
            assert index.dispatch_mode == "inline"
            index.append(rng.integers(0, 8, 16_000).astype(np.int32))
            assert index.dispatch_mode == "pool"
            predicate = RangePredicate.range(2, 6, INT)
            assert_identical(
                ColumnImprints(index.column).query(predicate), index.query(predicate)
            )
            assert index._pool is not None
