"""NumPy oracles for every answer the workloads check.

Each oracle answers from the plain value array, never from the
program.  A half-open range ``[low, high)`` over a sorted copy of the
column is a ``searchsorted`` slice, so the matching row ids are one
slice of a stable ``argsort`` — the same ids ``np.flatnonzero`` of the
predicate gives, found in O(log n + answer) instead of O(n).
"""

from __future__ import annotations

import numpy as np


class OracleMismatch(AssertionError):
    """An answer differs from the oracle: the run fails."""


class SortedOracle:
    """Range answers over one immutable column."""

    def __init__(self, values: np.ndarray) -> None:
        self.values = values
        self.order = np.argsort(values, kind="stable")
        self.sorted = values[self.order]
        self._prefix = None

    def _position(self, bound) -> int:
        """Rows below ``bound``.  The bound is cast to the column's dtype
        first: a Python int would make NumPy promote the whole column."""
        info = np.iinfo(self.sorted.dtype)
        if bound > info.max:
            return self.sorted.shape[0]
        if bound < info.min:
            return 0
        return int(np.searchsorted(self.sorted, self.sorted.dtype.type(bound)))

    def _bounds(self, low, high) -> tuple[int, int]:
        a, b = self._position(low), self._position(high)
        return a, max(a, b)

    def ids(self, low, high) -> np.ndarray:
        a, b = self._bounds(low, high)
        return np.sort(self.order[a:b])

    def count(self, low, high) -> int:
        a, b = self._bounds(low, high)
        return b - a

    def sum(self, low, high) -> int:
        if self._prefix is None:
            self._prefix = np.concatenate(
                [[0], np.cumsum(self.sorted, dtype=np.int64)])
        a, b = self._bounds(low, high)
        return int(self._prefix[b] - self._prefix[a])


def check(condition: bool, what: str) -> None:
    if not condition:
        raise OracleMismatch(what)


def check_ids(got, expected: np.ndarray, what: str) -> None:
    got = np.asarray(got, dtype=np.int64)
    check(got.shape == expected.shape and np.array_equal(got, expected),
          f"{what}: {got.shape[0]} ids differ from the oracle's "
          f"{expected.shape[0]}")
