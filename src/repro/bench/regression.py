"""Benchmark regression gate — one table gates every ``BENCH_*.json``.

Every study writes the shared schema (``study``, ``config``,
``verified``, ``headline``; see :func:`repro.bench.runner.write_result`)::

    python -m repro.bench.regression FRESH_DIR --baseline BASE_DIR [--tolerance T]

gates each ``BENCH_<study>.json`` in ``FRESH_DIR`` against its namesake
in ``BASE_DIR``; exit status 1 lists the failures.  A study without an
entry in :data:`GATES` fails, so no study skips the gate.  Wall clock
does not travel across machines, so a :class:`Gate` checks portable
facts only: ``verified`` (answers matched an oracle before timing);
absolute floors/ceilings on headline ratios on full-size runs (smoke
runs finish in milliseconds, inside timer jitter); headline drift
beyond ``baseline × (1 ± tol)`` when both runs agree on the
``comparable`` config keys (never ``cpu_count``: within-run ratios are
the portable part; getting faster never fails); and a short per-study
check for what is not a headline key.
"""

from __future__ import annotations

import argparse
import json
import pathlib
from collections.abc import Callable
from dataclasses import dataclass, field

__all__ = [
    "DEFAULT_TOLERANCE", "MIN_FIRST_PAGE_SPEEDUP", "MAX_PLANNER_VS_BEST_STATIC",
    "MIN_UNSELECTIVE_SPEEDUP", "MIN_GROUPED_SPEEDUP", "Gate", "GATES",
    "check_study", "main",
]

#: Allowed relative drift before the gate fires (±25%).
DEFAULT_TOLERANCE = 0.25
#: The first page at the headline selectivity beats eager materialisation
#: by this factor.
MIN_FIRST_PAGE_SPEEDUP = 10.0
#: The planner lands within 10% of the best static backend per segment.
MAX_PLANNER_VS_BEST_STATIC = 1.10
#: The planner beats always-imprints on the low-selectivity segment —
#: the paper's Section 6.3 claim made a gate.
MIN_UNSELECTIVE_SPEEDUP = 1.0
#: Grouped COUNT/SUM/AVG pushdown beats materialise-then-group by this.
MIN_GROUPED_SPEEDUP = 5.0


@dataclass(frozen=True)
class Gate:
    """How one study is gated; every bound gets the tolerance on top."""

    #: What a true ``verified`` vouches for (names the failure).
    verifies: str
    #: Config keys that must agree for a baseline comparison.
    comparable: tuple[str, ...] = ()
    #: Headline key -> (bound, claim) for full-size runs.
    floors: dict = field(default_factory=dict)
    ceilings: dict = field(default_factory=dict)
    #: Headline keys that may not drift past the baseline's value.
    drift_floors: tuple[str, ...] = ()
    drift_ceilings: tuple[str, ...] = ()
    #: Whether smoke runs skip the baseline comparison.
    drift_skips_smoke: bool = False
    #: ``extra(fresh, baseline, tolerance) -> failures``; ``baseline`` is
    #: None unless the comparison applies.
    extra: Callable | None = None


def _full_size(result: dict) -> bool:
    return not result.get("config", {}).get("smoke")


def _outside(what, got, bound, tolerance, ceiling=False, base="") -> list:
    """``[failure]`` if ``got`` is past ``bound`` ± tolerance, else ``[]``."""
    limit = bound * (1.0 + tolerance if ceiling else 1.0 - tolerance)
    if not (got > limit if ceiling else got < limit):
        return []
    sign, op = (">", "+") if ceiling else ("<", "-")
    return [
        f"{what}: {got:.2f}x {sign} {limit:.2f}x "
        f"({base}{bound:.2f}x {op} {tolerance:.0%})"
    ]


def _throughput(fresh, baseline, tolerance) -> list[str]:
    modes = fresh.get("modes", {})
    sharded = modes.get("sharded", {})
    failures = _outside(
        "sharded mode is slower than serial "
        f"(dispatch={sharded.get('dispatch_mode', '?')})",
        sharded.get("speedup_vs_serial", 0.0), 1.0, tolerance,
    ) if _full_size(fresh) else []
    for name, numbers in (baseline or {}).get("modes", {}).items():
        if name != "serial" and name in modes:
            failures += _outside(
                f"{name} speedup regressed",
                modes[name].get("speedup_vs_serial", 0.0),
                numbers.get("speedup_vs_serial", 0.0), tolerance,
                base="baseline ",
            )
    return failures


def _serving(fresh, baseline, tolerance) -> list[str]:
    """The overload contract: nothing hangs, nothing is dropped."""
    failures, get = [], fresh.get
    if not get("completed"):
        failures.append("serving run did not complete — a request hung "
                        "past the guard timeout (deadlock)")
    if not get("accounting_balanced"):
        failures.append(
            f"serving accounting does not balance: served={get('served')} + "
            f"rejected={get('rejected')} + timed_out={get('timed_out')} + "
            f"errors={get('errors')} != issued={get('issued')}"
        )
    if get("errors"):
        failures.append(f"serving run recorded {get('errors')} errors "
                        f"(statuses {get('error_statuses')})")
    if get("served", 0) < 1:
        failures.append("no request was served at all")
    p50, p99 = (get("latency_ms", {}).get(q) for q in ("p50", "p99"))
    reject_p95 = get("reject_latency_ms", {}).get("p95")
    budget = get("config", {}).get("timeout_ms", 0.0)
    if _full_size(fresh) and p99 is not None and budget and p99 > budget:
        failures.append(f"accepted p99 exceeds the request budget: {p99:.1f}ms"
                        f" > {budget:.0f}ms — the deadline path leaks")
    if _full_size(fresh) and None not in (p99, reject_p95) and reject_p95 > p99:
        failures.append(f"fast rejection is slower than serving: reject p95 "
                        f"{reject_p95:.1f}ms > accepted p99 {p99:.1f}ms")
    # The tail *shape* (p99/p50) is portable; raw wall clock is not.
    base = (baseline or {}).get("latency_ms", {})
    if p50 and p99 and base.get("p50") and base.get("p99"):
        failures += _outside(
            "accepted-latency tail widened (p99/p50)", p99 / p50,
            base["p99"] / base["p50"], tolerance, ceiling=True, base="baseline ",
        )
    return failures


def _durability(fresh, baseline, tolerance) -> list[str]:
    return [
        f"recovery at log fraction {point.get('log_fraction')} was not "
        f"bit-identical to the oracle"
        for point in fresh.get("recovery", [])
        if not point.get("bit_identical")
    ]


def _replication(fresh, baseline, tolerance) -> list[str]:
    lag = fresh.get("headline", {}).get("final_lag", 1)
    return [] if lag == 0 else [f"follower finished lagging: final_lag={lag}"]


#: One entry per study: every bound and comparable-key set lives here.
GATES: dict[str, Gate] = {
    "throughput": Gate(
        "answers bit-identical", ("n_rows", "n_queries", "n_shards", "smoke"),
        extra=_throughput,
    ),
    "materialization": Gate(
        "forced ids bit-identical", ("n_rows", "smoke"),
        drift_floors=("speedup_count_vs_eager", "speedup_cached_vs_eager"),
    ),
    "aggregates": Gate("pushdown answers against the NumPy references"),
    "streaming": Gate(
        "paged output bit-identical", ("n_rows", "page_size", "smoke"),
        floors={"speedup_first_page_vs_eager": (MIN_FIRST_PAGE_SPEEDUP, (
            "first-page latency invariant lost vs eager materialisation"))},
        drift_floors=("speedup_first_page_vs_eager",
                      "speedup_sharded_page_vs_eager",
                      "speedup_executor_page_vs_eager"),
    ),
    "serving": Gate(
        "served counts against the oracle (wrong count/ids)",
        ("n_rows", "n_requests", "max_inflight", "max_waiting",
         "rate_multiplier", "smoke"),
        extra=_serving,
    ),
    "durability": Gate(
        "recovered state bit-identical to the oracle",
        ("n_rows", "n_mutations", "smoke"),
        drift_floors=("group_commit_speedup",),
        drift_ceilings=("wal_overhead_ratio",),
        drift_skips_smoke=True, extra=_durability,
    ),
    "replication": Gate(
        "follower state bit-identical (oracle match + WAL byte-prefix)",
        ("n_rows", "n_mutations", "smoke"),
        drift_ceilings=("ship_overhead_ratio",),
        drift_skips_smoke=True, extra=_replication,
    ),
    "planner": Gate(
        "all modes bit-identical to the imprints oracle",
        ("n_rows", "queries_per_segment", "seed", "smoke"),
        floors={"low_selectivity_speedup_vs_imprints": (
            MIN_UNSELECTIVE_SPEEDUP, "planner no longer beats "
            "always-imprints on the low-selectivity segment")},
        ceilings={"max_planner_vs_best_static": (
            MAX_PLANNER_VS_BEST_STATIC,
            "planner strayed from the best static backend")},
        drift_floors=("low_selectivity_speedup_vs_imprints",),
        drift_ceilings=("max_planner_vs_best_static",),
        drift_skips_smoke=True,
    ),
    "dashboard": Gate(
        "grouped/moment/top-k answers against the NumPy references",
        ("n_rows", "seed", "n_regions", "smoke"),
        floors={"min_grouped_speedup_vs_eager": (
            MIN_GROUPED_SPEEDUP, "grouped pushdown lost the acceptance headline")},
        drift_floors=("min_grouped_speedup_vs_eager",
                      "cached_speedup_grouped_sum", "topk_speedup_vs_eager"),
        drift_skips_smoke=True,
    ),
}


def _comparable(gate: Gate, fresh: dict, baseline: dict) -> bool:
    """Whether the baseline comparison applies to this pair of runs."""
    if gate.drift_skips_smoke and not _full_size(fresh):
        return False
    ours, theirs = fresh.get("config", {}), baseline.get("config", {})
    return all(ours.get(key) == theirs.get(key) for key in gate.comparable)


def check_study(study: str, fresh: dict, baseline: dict | None = None,
                tolerance: float = DEFAULT_TOLERANCE) -> list[str]:
    """Gate one result against an optional baseline; [] means it passes."""
    if not 0.0 <= tolerance < 1.0:
        raise ValueError(f"tolerance must be in [0, 1), got {tolerance}")
    gate = GATES.get(study)
    if gate is None:
        return [f"no gate for study {study!r}: add an entry to GATES"]
    failures = []
    if not fresh.get("verified"):
        failures.append(f"{study} run did not verify {gate.verifies}")
    headline = fresh.get("headline", {})
    full = _full_size(fresh)
    for key, (bound, claim) in gate.floors.items() if full else ():
        failures += _outside(claim, headline.get(key, 0.0), bound, tolerance)
    for key, (bound, claim) in gate.ceilings.items() if full else ():
        got = headline.get(key, float("inf"))
        failures += _outside(claim, got, bound, tolerance, ceiling=True)
    if baseline is not None and not _comparable(gate, fresh, baseline):
        baseline = None
    base = (baseline or {}).get("headline", {})
    for key in gate.drift_floors if baseline else ():
        failures += _outside(
            f"{study} {key} regressed", headline.get(key, 0.0),
            base.get(key, 0.0), tolerance, base="baseline ",
        )
    for key in gate.drift_ceilings if baseline else ():
        failures += _outside(
            f"{study} {key} grew", headline.get(key, 0.0),
            base.get(key, float("inf")), tolerance, ceiling=True,
            base="baseline ",
        )
    if gate.extra is not None:
        failures += gate.extra(fresh, baseline, tolerance)
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.regression", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("fresh", help="directory of fresh BENCH_*.json")
    parser.add_argument("--baseline", required=True,
                        help="directory of baseline BENCH_*.json")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    args = parser.parse_args(argv)

    paths = sorted(pathlib.Path(args.fresh).glob("BENCH_*.json"))
    studies = [path.stem[len("BENCH_"):] for path in paths]
    failures = [] if paths else [f"no BENCH_*.json in {args.fresh}"]
    for study, path in zip(studies, paths):
        fresh = json.loads(path.read_text())
        if fresh.get("study") != study:
            failures.append(f"{path.name} says study={fresh.get('study')!r}")
        base_path = pathlib.Path(args.baseline) / path.name
        baseline = json.loads(base_path.read_text()) if base_path.exists() else None
        if baseline is None:
            print(f"note: {study}: no baseline, invariants only")
        elif study in GATES and not _comparable(GATES[study], fresh, baseline):
            print(f"note: {study}: baseline comparison skipped (config "
                  f"differs or smoke run), invariants still gate")
        gated = check_study(study, fresh, baseline, args.tolerance)
        failures += [f"{study}: {failure}" for failure in gated]

    for failure in failures:
        print(f"REGRESSION: {failure}")
    if not failures:
        print(f"gate passed: {', '.join(studies)}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
