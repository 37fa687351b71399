"""The table-driven benchmark regression gate, bound by bound.

For every bound the gate keeps — each absolute floor and ceiling and
each baseline-drift key of :data:`repro.bench.regression.GATES`, plus
the per-study checks that are not headline keys — a synthetic result
just inside the bound passes and one just outside fails.  The
directory command, the shared result schema and the committed
baselines are checked at the end.
"""

from __future__ import annotations

import copy
import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

from repro.bench.regression import DEFAULT_TOLERANCE as TOL
from repro.bench.regression import GATES, check_study, main
from repro.bench.runner import RESULT_KEYS, write_result

RESULTS_DIR = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "results"

#: Sections the per-study checks read, at values that clear every check.
_SECTIONS = {
    "throughput": {"modes": {
        "serial": {"speedup_vs_serial": 1.0},
        "sharded": {"speedup_vs_serial": 1.0, "dispatch_mode": "inline"},
        "executor": {"speedup_vs_serial": 4.0},
    }},
    "serving": {
        "completed": True, "accounting_balanced": True, "errors": 0,
        "served": 10, "latency_ms": {"p50": 10.0, "p99": 20.0},
        "reject_latency_ms": {"p95": 5.0},
    },
    "durability": {"recovery": [
        {"log_fraction": 0.5, "bit_identical": True},
        {"log_fraction": 1.0, "bit_identical": True},
    ]},
}


def clean(study: str, smoke: bool = False) -> dict:
    """A result of ``study`` that clears every bound with room to spare."""
    gate = GATES[study]
    headline = {key: 100.0 for key in (*gate.floors, *gate.drift_floors)}
    headline.update(
        {key: 1.0 for key in (*gate.ceilings, *gate.drift_ceilings)}
    )
    if study == "replication":
        headline["final_lag"] = 0
    config = {key: 1 for key in gate.comparable}
    config.update(smoke=smoke, timeout_ms=100.0)
    result = {
        "study": study, "config": config, "verified": True,
        "headline": headline,
    }
    result.update(copy.deepcopy(_SECTIONS.get(study, {})))
    return result


def _set(result: dict, path: tuple, value) -> dict:
    node = result
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    return result


def _bound_cases():
    """``(id, study, path, limit, is_ceiling, baseline)`` per bound."""
    for study, gate in GATES.items():
        for key, (bound, _) in gate.floors.items():
            yield (f"{study}-floor-{key}", study, ("headline", key),
                   bound * (1 - TOL), False, None)
        for key, (bound, _) in gate.ceilings.items():
            yield (f"{study}-ceiling-{key}", study, ("headline", key),
                   bound * (1 + TOL), True, None)
        for key in gate.drift_floors:
            yield (f"{study}-drift-floor-{key}", study, ("headline", key),
                   100.0 * (1 - TOL), False, clean(study))
        for key in gate.drift_ceilings:
            yield (f"{study}-drift-ceiling-{key}", study, ("headline", key),
                   1.0 * (1 + TOL), True, clean(study))
    sharded = ("modes", "sharded", "speedup_vs_serial")
    executor = ("modes", "executor", "speedup_vs_serial")
    yield ("throughput-sharded-not-slower", "throughput", sharded,
           1.0 - TOL, False, None)
    # A baseline well above 1x keeps the not-slower floor out of the way.
    yield ("throughput-sharded-drift", "throughput", sharded,
           2.0 * (1 - TOL), False, _set(clean("throughput"), sharded, 2.0))
    yield ("throughput-executor-drift", "throughput", executor,
           4.0 * (1 - TOL), False, clean("throughput"))
    # Accepted p99 within the request budget, rejection p95 within the
    # accepted p99 (both without tolerance), tail ratio within baseline.
    yield ("serving-p99-budget", "serving", ("latency_ms", "p99"),
           100.0, True, None)
    yield ("serving-reject-p95", "serving", ("reject_latency_ms", "p95"),
           20.0, True, None)
    yield ("serving-tail-ratio", "serving", ("latency_ms", "p99"),
           10.0 * 2.0 * (1 + TOL), True, clean("serving"))


BOUNDS = list(_bound_cases())

#: ``(id, study, path, broken value)`` for the yes/no invariants.
BROKEN = [
    *[(f"{study}-verified", study, ("verified",), False) for study in GATES],
    ("serving-completed", "serving", ("completed",), False),
    ("serving-accounting", "serving", ("accounting_balanced",), False),
    ("serving-errors", "serving", ("errors",), 1),
    ("serving-nothing-served", "serving", ("served",), 0),
    ("durability-recovery-point", "durability",
     ("recovery", 0, "bit_identical"), False),
    ("replication-final-lag", "replication", ("headline", "final_lag"), 1),
]


def test_every_study_has_bounds_or_checks():
    assert set(GATES) == {
        "throughput", "materialization", "aggregates", "streaming",
        "serving", "durability", "replication", "planner", "dashboard",
    }
    for study in GATES:
        assert check_study(study, clean(study), clean(study)) == []


@pytest.mark.parametrize("case", BOUNDS, ids=[case[0] for case in BOUNDS])
def test_bound_passes_inside_and_fails_outside(case):
    _, study, path, limit, is_ceiling, baseline = case
    inside, outside = (0.99, 1.01) if is_ceiling else (1.01, 0.99)
    fresh = _set(clean(study), path, limit * inside)
    assert check_study(study, fresh, baseline) == []
    fresh = _set(clean(study), path, limit * outside)
    assert check_study(study, fresh, baseline) != []


@pytest.mark.parametrize("case", BROKEN, ids=[case[0] for case in BROKEN])
def test_broken_invariant_fails_at_any_size(case):
    _, study, path, value = case
    for smoke in (False, True):
        assert check_study(study, _set(clean(study, smoke), path, value))


@pytest.mark.parametrize(
    "case",
    [case for case in BOUNDS if case[5] is None],
    ids=[case[0] for case in BOUNDS if case[5] is None],
)
def test_absolute_bounds_skip_smoke_runs(case):
    _, study, path, limit, is_ceiling, _ = case
    outside = limit * (1.01 if is_ceiling else 0.99)
    assert check_study(study, _set(clean(study, True), path, outside)) == []


@pytest.mark.parametrize(
    "case",
    [case for case in BOUNDS if case[5] is not None],
    ids=[case[0] for case in BOUNDS if case[5] is not None],
)
def test_drift_needs_a_comparable_baseline(case):
    _, study, path, limit, is_ceiling, baseline = case
    gate = GATES[study]
    outside = limit * (1.01 if is_ceiling else 0.99)
    # A smoke pair compares unless the entry says smoke runs skip it.
    fresh = _set(clean(study, smoke=True), path, outside)
    smoke_baseline = _set(copy.deepcopy(baseline), ("config", "smoke"), True)
    failures = check_study(study, fresh, smoke_baseline)
    assert (failures == []) == gate.drift_skips_smoke
    # Any differing comparable key disables the comparison.
    for key in gate.comparable:
        other = _set(copy.deepcopy(baseline), ("config", key), "other")
        fresh = _set(clean(study), path, outside)
        assert check_study(study, fresh, other) == [], key


def test_bounds_and_comparable_keys_are_pinned():
    from repro.bench import regression

    assert TOL == 0.25
    assert regression.MIN_FIRST_PAGE_SPEEDUP == 10.0
    assert regression.MAX_PLANNER_VS_BEST_STATIC == 1.10
    assert regression.MIN_UNSELECTIVE_SPEEDUP == 1.0
    assert regression.MIN_GROUPED_SPEEDUP == 5.0
    pinned = {
        "throughput": (("n_rows", "n_queries", "n_shards", "smoke"), (), (), False),
        "materialization": (("n_rows", "smoke"), (
            "speedup_count_vs_eager", "speedup_cached_vs_eager"), (), False),
        "aggregates": ((), (), (), False),
        "streaming": (("n_rows", "page_size", "smoke"), (
            "speedup_first_page_vs_eager", "speedup_sharded_page_vs_eager",
            "speedup_executor_page_vs_eager"), (), False),
        "serving": (("n_rows", "n_requests", "max_inflight", "max_waiting",
                     "rate_multiplier", "smoke"), (), (), False),
        "durability": (("n_rows", "n_mutations", "smoke"), (
            "group_commit_speedup",), ("wal_overhead_ratio",), True),
        "replication": (("n_rows", "n_mutations", "smoke"), (),
                        ("ship_overhead_ratio",), True),
        "planner": (("n_rows", "queries_per_segment", "seed", "smoke"), (
            "low_selectivity_speedup_vs_imprints",), (
            "max_planner_vs_best_static",), True),
        "dashboard": (("n_rows", "seed", "n_regions", "smoke"), (
            "min_grouped_speedup_vs_eager", "cached_speedup_grouped_sum",
            "topk_speedup_vs_eager"), (), True),
    }
    for study, (comparable, floors, ceilings, skips) in pinned.items():
        gate = GATES[study]
        assert gate.comparable == comparable, study
        assert (gate.drift_floors, gate.drift_ceilings) == (floors, ceilings)
        assert gate.drift_skips_smoke is skips, study
    absolute = {
        (study, kind, key, bound)
        for study, gate in GATES.items()
        for kind, bounds in (("floor", gate.floors), ("ceiling", gate.ceilings))
        for key, (bound, _) in bounds.items()
    }
    assert absolute == {
        ("streaming", "floor", "speedup_first_page_vs_eager", 10.0),
        ("planner", "floor", "low_selectivity_speedup_vs_imprints", 1.0),
        ("planner", "ceiling", "max_planner_vs_best_static", 1.10),
        ("dashboard", "floor", "min_grouped_speedup_vs_eager", 5.0),
    }


def test_write_result_enforces_the_shared_schema(tmp_path):
    result = clean("planner")
    path = write_result(result, tmp_path / "BENCH_planner.json")
    assert json.loads(path.read_text()) == result
    for key in RESULT_KEYS:
        broken = {k: v for k, v in result.items() if k != key}
        with pytest.raises(ValueError, match=key):
            write_result(broken, tmp_path / "x.json")
    with pytest.raises(ValueError, match="verified"):
        write_result({**result, "verified": 1}, tmp_path / "x.json")


def test_command_gates_every_file_in_a_directory(tmp_path, capsys):
    fresh, base = tmp_path / "fresh", tmp_path / "base"
    for study in GATES:
        write_result(clean(study), fresh / f"BENCH_{study}.json")
        write_result(clean(study), base / f"BENCH_{study}.json")
    assert main([str(fresh), "--baseline", str(base)]) == 0
    worse = _set(clean("dashboard"), ("headline", "topk_speedup_vs_eager"), 1)
    write_result(worse, fresh / "BENCH_dashboard.json")
    assert main([str(fresh), "--baseline", str(base)]) == 1
    assert "dashboard: dashboard topk_speedup_vs_eager regressed" in (
        capsys.readouterr().out
    )


def test_command_fails_a_study_without_a_gate(tmp_path, capsys):
    new = {**clean("aggregates"), "study": "brand_new"}
    write_result(new, tmp_path / "BENCH_brand_new.json")
    assert main([str(tmp_path), "--baseline", str(tmp_path)]) == 1
    assert "no gate for study 'brand_new'" in capsys.readouterr().out


def test_command_fails_an_empty_or_mislabelled_directory(tmp_path):
    assert main([str(tmp_path), "--baseline", str(tmp_path)]) == 1
    write_result(clean("planner"), tmp_path / "BENCH_dashboard.json")
    assert main([str(tmp_path), "--baseline", str(tmp_path)]) == 1


def test_committed_baselines_share_the_schema_and_pass(tmp_path):
    # Gate a copy, so a concurrent bench run cannot change the files
    # between the schema check and the gate.
    shutil.copytree(RESULTS_DIR, tmp_path / "results",
                    ignore=shutil.ignore_patterns("*.txt"))
    results = tmp_path / "results"
    for path in sorted(results.glob("BENCH_*.json")):
        result = json.loads(path.read_text())
        assert set(RESULT_KEYS) <= set(result), path.name
        assert isinstance(result["verified"], bool), path.name
    assert main([str(results), "--baseline", str(results)]) == 0


def test_gate_import_skips_the_figure_drivers():
    # The gate reads JSON only; the package's exports load on demand,
    # so importing it must not pull in the figure drivers.
    probe = (
        "import sys, repro.bench.regression; "
        "print('repro.bench.queries_fig8_11' in sys.modules)"
    )
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert out.stdout.strip() == "False"
    from repro.bench import get_context, render_fig8

    assert callable(get_context) and callable(render_fig8)
