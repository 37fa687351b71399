"""Sequential scan — the paper's baseline "index".

A scan touches every cacheline and compares every value; it needs no
storage and its cost is flat across selectivities.  The paper uses it as
the floor every index must beat (and notes that for low-selectivity
queries the indexes barely do, which is why optimisers fall back to
scans there).

As a planner backend the scan follows the full index contract: answers
come back as :class:`~repro.core.rowset.RowSet`-backed
:class:`~repro.index_base.QueryResult`\\ s stamped with the index's
mutation counter, and ``append``/``note_update``/``note_delete`` keep
the column current, so the executor's versioned LRU and page cursors
work identically whether the planner chose imprints or the scan.
"""

from __future__ import annotations

import numpy as np

from ..core.rowset import RowSet
from ..index_base import QueryResult, QueryStats, SecondaryIndex
from ..predicate import RangePredicate

__all__ = ["SequentialScan"]


class SequentialScan(SecondaryIndex):
    """Full-column scan implementing the :class:`SecondaryIndex` API."""

    kind = "scan"

    @property
    def nbytes(self) -> int:
        return 0

    def query(self, predicate: RangePredicate) -> QueryResult:
        values = self.column.values
        stats = QueryStats(
            index_probes=0,
            value_comparisons=int(values.shape[0]),
            cachelines_fetched=self.column.n_cachelines,
        )
        ids = np.flatnonzero(predicate.matches(values)).astype(np.int64, copy=False)
        stats.ids_materialized = int(ids.shape[0])
        return QueryResult(
            rowset=RowSet.from_ids(ids), stats=stats
        ).stamp_version(self.version)

    # ------------------------------------------------------------------
    # updates — the scan has no structure to maintain beyond the column
    # ------------------------------------------------------------------
    def append(self, values) -> None:
        """Append values (the scan just grows its column)."""
        values = self.column.ctype.cast(values)
        if values.size == 0:
            return
        self.column = self.column.appended(values)
        self.version += 1

    def note_update(self, value_id: int, new_value) -> None:
        """Apply an in-place update to the column."""
        self.column = self.column.with_value(value_id, new_value)
        self.version += 1

    def note_delete(self, value_id: int) -> None:
        """Record a deletion (logical, like imprints: weeding handles it)."""
        if not 0 <= value_id < len(self.column):
            raise IndexError(
                f"value id {value_id} out of range [0, {len(self.column)})"
            )
        self.version += 1
