"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import sharded
from repro.storage import CHAR, DOUBLE, INT, LONG, REAL, SHORT, Column


@pytest.fixture(autouse=True)
def shard_pool_on_small_indexes(monkeypatch):
    """Send sharded test indexes to the shard pool.

    Test columns are far smaller than the work per shard at which
    :attr:`ShardedColumnImprints.dispatch_mode` picks the pool
    (``POOL_MIN_VECTORS``), so without this every sharded test would
    run inline and never exercise the fan-out and stitch.  Tests of the
    dispatch rule itself set the constant back.
    """
    monkeypatch.setattr(sharded, "POOL_MIN_VECTORS", 0)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def make_clustered(n: int, dtype, seed: int = 0, scale: float = 30.0) -> np.ndarray:
    """A locally clustered (random-walk) array of the given dtype."""
    generator = np.random.default_rng(seed)
    walk = np.cumsum(generator.normal(0.0, scale, n)) + 10_000.0
    return walk.astype(dtype)


def make_random(n: int, dtype, seed: int = 0, low=0, high=100_000) -> np.ndarray:
    """A uniformly random array of the given dtype."""
    generator = np.random.default_rng(seed)
    if np.dtype(dtype).kind in "iu":
        return generator.integers(low, high, n).astype(dtype)
    return generator.uniform(low, high, n).astype(dtype)


@pytest.fixture
def clustered_column() -> Column:
    return Column(make_clustered(20_000, np.int32, seed=5), name="t.clustered")


@pytest.fixture
def random_column() -> Column:
    return Column(make_random(20_000, np.int32, seed=6), name="t.random")


@pytest.fixture(params=[CHAR, SHORT, INT, LONG, REAL, DOUBLE], ids=lambda t: t.name)
def any_ctype(request):
    """Every storage width the paper evaluates (1/2/4/8 bytes, int+float)."""
    return request.param


def column_for_type(ctype, n: int = 5_000, seed: int = 3) -> Column:
    """A column of the given type with a realistic value spread."""
    generator = np.random.default_rng(seed)
    if ctype.is_float:
        values = generator.normal(0.0, 1_000.0, n).astype(ctype.dtype)
    else:
        lo = max(ctype.min_value, -120)
        hi = min(ctype.max_value, 10_000)
        values = generator.integers(lo, hi, n).astype(ctype.dtype)
    return Column(values, ctype=ctype, name=f"t.{ctype.name}")
