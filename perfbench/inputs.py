"""Seeded input generation for every workload.

Everything a workload feeds the program is made here, from the run's
``--seed`` alone: the columns, the predicates, the open-loop send
schedules and the ingest mutation stream.  One seed always gives the
same bytes; the self-test checks that, and that another seed does not.

The streams a timed phase draws from until its clock runs out (the
closed loop's requests, the scan caller's predicates, ingest's reads
and writes) are endless generators, so no speed-up of the program and
no ``--seconds`` can use them up.

Each purpose draws from its own stream (``np.random.default_rng([seed,
stream])``), so adding a draw to one input never shifts another.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass

import numpy as np

# Stream ids: one independent generator per input purpose.
COLUMN, WARMUP, TIMED, CLOSED, PROBE, SCHEDULE, MUTATIONS = range(7)


def rng_for(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream])


def clustered_int32(rng: np.random.Generator, n_rows: int,
                    step: float = 25.0) -> np.ndarray:
    """A random walk: neighbouring rows hold close values (the paper's
    best case for imprints, like time-ordered data)."""
    walk = np.cumsum(rng.normal(0.0, step, n_rows)) + 50_000.0
    return walk.astype(np.int32)


def high_entropy_int32(rng: np.random.Generator, n_rows: int) -> np.ndarray:
    """Uniform random values: every cacheline spans the whole domain
    (the paper's worst case for imprints)."""
    return rng.integers(0, 1 << 30, n_rows, dtype=np.int64).astype(np.int32)


def log_uniform(rng: np.random.Generator, low: float, high: float,
                size: int, block: int = 64) -> np.ndarray:
    """Log-uniform draws, stratified block by block: each run of
    ``block`` consecutive draws holds one draw from each of ``block``
    equal slices of the range, in random order.  Any stretch of the
    stream then holds nearly the same mix of selectivities, so runs on
    different seeds measure the same distribution, not a lucky draw
    of it."""
    u = np.empty(size)
    for start in range(0, size, block):
        n = min(block, size - start)
        u[start:start + n] = rng.permutation((np.arange(n) + rng.random(n)) / n)
    return np.exp(math.log(low) + u * (math.log(high) - math.log(low)))


def range_predicates(rng: np.random.Generator, sorted_values: np.ndarray,
                     selectivities: np.ndarray,
                     seen: set | None = None) -> list[tuple[int, int]]:
    """Half-open ``[low, high)`` bounds hitting each target selectivity.

    A window of ``selectivity * n`` rows is placed at a random position
    of the sorted column, so ties at the bounds make the real
    selectivity differ slightly from the target.  Bounds already in
    ``seen`` are skipped and new ones are added to it: every predicate
    is new.
    """
    n = sorted_values.shape[0]
    seen = set() if seen is None else seen
    out: list[tuple[int, int]] = []
    widths = np.maximum(1, (selectivities * n).astype(np.int64))
    starts = (rng.random(widths.shape[0]) * (n - widths)).astype(np.int64)
    lows = sorted_values[starts].tolist()
    highs = sorted_values[np.minimum(starts + widths, n - 1)].tolist()
    for low, high in zip(lows, highs):
        if high <= low:
            high = low + 1
        if (low, high) in seen:
            continue
        seen.add((low, high))
        out.append((low, high))
    return out


def endless_predicates(rng: np.random.Generator, sorted_values: np.ndarray,
                       sel: tuple[float, float], seen: set, block: int = 64):
    """New ``[low, high)`` bounds without end, drawn a stratified block
    of :func:`log_uniform` selectivities at a time; ``seen`` keeps every
    bound new."""
    while True:
        yield from range_predicates(
            rng, sorted_values, log_uniform(rng, *sel, block, block), seen)


def poisson_offsets(rng: np.random.Generator, rate: float,
                    duration: float) -> np.ndarray:
    """Send offsets (seconds from phase start) of an open-loop Poisson
    process at ``rate`` requests per second over ``duration`` seconds."""
    n = int(rate * duration * 1.5) + 16
    offsets = np.cumsum(rng.exponential(1.0 / rate, n))
    return offsets[offsets < duration]


def fingerprint(*arrays) -> str:
    """SHA-256 over the bytes of generated inputs (self-test helper)."""
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(np.asarray(array)).tobytes())
    return digest.hexdigest()


# ----------------------------------------------------------------------
# per-workload input sets
# ----------------------------------------------------------------------
@dataclass
class ServeIdsInputs:
    values: np.ndarray
    warmup: list
    timed: list            # the open loop's requests, one per send offset
    closed: object         # endless iterator of the closed loop's requests
    offsets: np.ndarray


def serve_ids_column(seed: int, n_rows: int) -> np.ndarray:
    return clustered_int32(rng_for(seed, COLUMN), n_rows)


def serve_ids_inputs(seed: int, n_rows: int, rate: float, open_seconds: float,
                     sel=(0.0005, 0.01), n_warmup: int = 60) -> ServeIdsInputs:
    values = serve_ids_column(seed, n_rows)
    ordered = np.sort(values)
    offsets = poisson_offsets(rng_for(seed, SCHEDULE), rate, open_seconds)
    seen: set = set()
    warmup = list(itertools.islice(endless_predicates(
        rng_for(seed, WARMUP), ordered, sel, seen), n_warmup))
    timed = list(itertools.islice(endless_predicates(
        rng_for(seed, TIMED), ordered, sel, seen), offsets.shape[0]))
    closed = endless_predicates(rng_for(seed, CLOSED), ordered, sel, seen)
    return ServeIdsInputs(values, warmup, timed, closed, offsets)


@dataclass
class ScanInputs:
    columns: dict          # name -> values
    warmup: list           # (column, op, low, high)
    timed: object          # endless iterator of the same
    probe: list


def scan_inputs(seed: int, n_rows: int, sel=(0.001, 0.2), n_warmup: int = 120,
                n_probe: int = 24) -> ScanInputs:
    col_rng = rng_for(seed, COLUMN)
    columns = {
        "clustered": clustered_int32(col_rng, n_rows),
        "entropy": high_entropy_int32(col_rng, n_rows),
    }
    names = tuple(columns)
    ordered = {name: np.sort(v) for name, v in columns.items()}
    seen: dict = {name: set() for name in names}

    def stream(stream_id: int):
        """Operations without end; every four in a row hold each
        (column, op) pair once, in random order."""
        rng = rng_for(seed, stream_id)
        preds = {name: endless_predicates(rng, ordered[name], sel, seen[name])
                 for name in names}
        while True:
            for pair in rng.permutation(4).tolist():
                name = names[pair // 2]
                yield (name, ("count", "sum")[pair % 2]) + next(preds[name])

    warmup = list(itertools.islice(stream(WARMUP), n_warmup))
    probe = list(itertools.islice(stream(PROBE), n_probe))
    return ScanInputs(columns, warmup, stream(TIMED), probe)


@dataclass
class IngestInputs:
    values: np.ndarray
    sorted_values: np.ndarray
    seed: int


def ingest_inputs(seed: int, n_rows: int) -> IngestInputs:
    values = clustered_int32(rng_for(seed, COLUMN), n_rows)
    return IngestInputs(values, np.sort(values), seed)


def ingest_writes(inputs: IngestInputs, append_rows: int):
    """The endless, seeded write stream: row-batch appends alternating
    with single-row updates of a uniformly drawn base row.  Each append
    is a short walk starting at the value of a random base row, so
    appended rows land inside the range the reads query on every seed
    (a walk continued from the last row would drift away on some seeds
    and not others).  Yields ``("append", values)`` or ``("update",
    row, value)``."""
    rng = rng_for(inputs.seed, MUTATIONS)
    values = inputs.values
    n_base = values.shape[0]
    lo, hi = int(inputs.sorted_values[0]), int(inputs.sorted_values[-1])
    while True:
        start = float(values[rng.integers(0, n_base)])
        walk = start + np.cumsum(rng.normal(0.0, 25.0, append_rows))
        yield ("append", np.clip(walk, lo, hi).astype(np.int32))
        yield ("update", int(rng.integers(0, n_base)), int(rng.integers(lo, hi)))


def ingest_reads(inputs: IngestInputs, sel=(0.001, 0.05)):
    """The endless, seeded read stream: ``count``, ``sum`` and a first
    page of 100 ids in turn, each over a new range.  Yields ``("read",
    kind, low, high)``."""
    predicates = endless_predicates(
        rng_for(inputs.seed, TIMED), inputs.sorted_values, sel, set())
    for kind, (low, high) in zip(itertools.cycle(("count", "sum", "page")),
                                 predicates):
        yield ("read", kind, low, high)
