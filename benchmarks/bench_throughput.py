"""Serving-throughput benchmark — serial vs sharded vs coalesced executor.

Replays a repetitive mixed-selectivity predicate stream (the production
traffic shape) through the three execution modes over one clustered
column, verifies every answer bit-identical against the serial
baseline, and records queries/sec per mode.  The machine-readable
result lands in ``benchmarks/results/BENCH_throughput.json`` so the
performance trajectory is tracked per commit; the text table joins the
other regenerated studies.

Runs two ways:

* under pytest with the rest of the benchmark suite (scaled by
  ``REPRO_SCALE``; ``REPRO_SMOKE=1`` shrinks it further);
* standalone — ``python benchmarks/bench_throughput.py [--smoke]`` —
  which is what CI uses to publish the JSON artifact per PR.
"""

import argparse
import os
import pathlib
import sys

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"
JSON_PATH = RESULTS_DIR / "BENCH_throughput.json"


def _run(smoke: bool, scale: float):
    from repro.bench.throughput import (
        render_throughput_study,
        run_throughput_study,
        scaled_defaults,
    )
    from repro.bench.runner import write_result

    result = run_throughput_study(smoke=smoke, **scaled_defaults(scale))
    write_result(result, JSON_PATH)
    return result, render_throughput_study(result)


def test_throughput(save_result):
    smoke = os.environ.get("REPRO_SMOKE", "") not in ("", "0")
    scale = float(os.environ.get("REPRO_SCALE", "1.0"))
    result, text = _run(smoke=smoke, scale=scale)
    save_result("throughput", text)
    print(f"[saved to {JSON_PATH}]")
    assert result["verified"]
    # The headline claim: >= 3x on the full-size workload (measured
    # 3.4-4.0x on the 1-core reference container).  Wall-clock bounds
    # are machine-dependent, so the assertion is opt-in — correctness
    # (bit-identical answers) is what gates by default, and the JSON
    # artifact tracks the trajectory.
    if not smoke and scale >= 1.0 and os.environ.get("REPRO_ASSERT_SPEEDUP"):
        executor = result["modes"]["executor"]
        assert executor["speedup_vs_serial"] >= 3.0, executor


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
