"""Self-tuning planner benchmark — planner vs static access paths.

Replays a mixed-selectivity stream over a clustered and an unclustered
column through every static backend (imprints, zonemap, WAH, scan —
each forced end-to-end through the executor) and through the
self-tuning planner, verifying every answer bit-identical against the
serial imprints oracle before timing anything.  The machine-readable
result lands in ``benchmarks/results/BENCH_planner.json``; the
regression gate's ``planner`` entry (``python -m repro.bench.regression``)
enforces the headline invariants: planner within 10% of the best
static backend on every segment, and faster than always-imprints on
the low-selectivity segment.

Runs two ways:

* under pytest with the rest of the benchmark suite (scaled by
  ``REPRO_SCALE``; ``REPRO_SMOKE=1`` shrinks it further);
* standalone — ``python benchmarks/bench_planner.py [--smoke]`` —
  which is what CI uses to publish the JSON artifact per PR.
"""

import argparse
import os
import pathlib
import sys

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"
JSON_PATH = RESULTS_DIR / "BENCH_planner.json"


def _run(smoke: bool, scale: float):
    from repro.bench.planner import (
        DEFAULT_QUERIES_PER_SEGMENT,
        DEFAULT_ROWS,
        render_planner_study,
        run_planner_study,
    )
    from repro.bench.runner import write_result

    result = run_planner_study(
        n_rows=max(50_000, int(DEFAULT_ROWS * scale)),
        queries_per_segment=max(
            8, int(DEFAULT_QUERIES_PER_SEGMENT * min(scale, 1.0))
        ),
        smoke=smoke,
    )
    write_result(result, JSON_PATH)
    return result, render_planner_study(result)


def test_planner(save_result):
    smoke = os.environ.get("REPRO_SMOKE", "") not in ("", "0")
    scale = float(os.environ.get("REPRO_SCALE", "1.0"))
    result, text = _run(smoke=smoke, scale=scale)
    save_result("planner", text)
    print(f"[saved to {JSON_PATH}]")
    assert result["verified"]
    # The wall-clock invariants (within 10% of best static per segment,
    # beats always-imprints when unselective) gate in CI through
    # repro.bench.regression on the published artifact; under pytest
    # only correctness gates, so shared machines cannot flake the suite.


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="shrunken workload for CI wall-clock budgets",
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
