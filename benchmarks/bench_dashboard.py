"""Dashboard-aggregation benchmark — GROUP BY / moment / top-k pushdown.

Selectivity sweep (0.2% – 20%) over a clustered fares column with a
zipf-skewed 12-region group column, timing three dashboard query
shapes answered two ways each: grouped ``COUNT``/``SUM``/``AVG`` from
the per-cacheline group histograms vs materialise-then-group,
``AVG``/``VAR`` from the sum-of-squares lane vs materialise-then-reduce,
and ORDER-BY-value top-10 via extrema-ordered pruning vs
materialise-then-sort.  Every answer — serial index, 4-shard partial
recombination, and executor cache — is verified against exact NumPy
references (bit-identical for the integer column) before any timing.
The machine-readable result lands in
``benchmarks/results/BENCH_dashboard.json``.

Runs two ways:

* under pytest with the rest of the benchmark suite (scaled by
  ``REPRO_SCALE``; ``REPRO_SMOKE=1`` shrinks it further);
* standalone — ``python benchmarks/bench_dashboard.py [--smoke]`` —
  which is what CI uses to publish the JSON artifact per PR.
"""

import argparse
import os
import pathlib
import sys

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"
JSON_PATH = RESULTS_DIR / "BENCH_dashboard.json"


def _run(smoke: bool, scale: float):
    from repro.bench.dashboard import (
        DEFAULT_ROWS,
        render_dashboard_study,
        run_dashboard_study,
    )
    from repro.bench.runner import write_result

    result = run_dashboard_study(
        n_rows=max(50_000, int(DEFAULT_ROWS * scale)), smoke=smoke
    )
    write_result(result, JSON_PATH)
    return result, render_dashboard_study(result)


def test_dashboard(save_result):
    smoke = os.environ.get("REPRO_SMOKE", "") not in ("", "0")
    scale = float(os.environ.get("REPRO_SCALE", "1.0"))
    result, text = _run(smoke=smoke, scale=scale)
    save_result("dashboard", text)
    print(f"[saved to {JSON_PATH}]")
    assert result["verified"]
    # The headline claim: grouped COUNT/SUM/AVG pushdown >= 5x over
    # materialise-then-group at 10% selectivity on the full-size
    # workload.  Wall-clock bounds are machine-dependent, so the
    # assertion is opt-in like the throughput one; the JSON artifact
    # tracks the trajectory.
    if not smoke and scale >= 1.0 and os.environ.get("REPRO_ASSERT_SPEEDUP"):
        headline = result["headline"]
        assert headline["min_grouped_speedup_vs_eager"] >= 5.0, headline


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="shrunken workload for CI (no speedup assertion)",
    )
    parser.add_argument(
        "--scale", type=float,
        default=float(os.environ.get("REPRO_SCALE", "1.0")),
    )
    args = parser.parse_args(argv)
    result, text = _run(smoke=args.smoke, scale=args.scale)
    print(text)
    print(f"[saved to {JSON_PATH}]")
    if not result["verified"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
