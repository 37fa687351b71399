"""Streaming benchmark — first-page latency vs eager materialisation.

Selectivity sweep (1% – 20%) over a clustered column timing "first 100
ids" served through the streaming pipeline (``QueryResult.page``, lazy
sharded ``page``, executor ``query_paged``) against forcing the full
``.ids`` array.  Paged output is verified bit-identical to the forced
ids and a NumPy oracle across all modes before timing.  The
machine-readable result lands in
``benchmarks/results/BENCH_streaming.json``.

Runs two ways:

* under pytest with the rest of the benchmark suite (scaled by
  ``REPRO_SCALE``; ``REPRO_SMOKE=1`` shrinks it further);
* standalone — ``python benchmarks/bench_streaming.py [--smoke]`` —
  which is what CI uses to publish the JSON artifact per PR.
"""

import argparse
import os
import pathlib
import sys

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"
JSON_PATH = RESULTS_DIR / "BENCH_streaming.json"


def _run(smoke: bool, scale: float):
    from repro.bench.streaming import (
        DEFAULT_ROWS,
        render_streaming_study,
        run_streaming_study,
    )
    from repro.bench.runner import write_result

    result = run_streaming_study(
        n_rows=max(50_000, int(DEFAULT_ROWS * scale)), smoke=smoke
    )
    write_result(result, JSON_PATH)
    return result, render_streaming_study(result)


def test_streaming(save_result):
    smoke = os.environ.get("REPRO_SMOKE", "") not in ("", "0")
    scale = float(os.environ.get("REPRO_SCALE", "1.0"))
    result, text = _run(smoke=smoke, scale=scale)
    save_result("streaming", text)
    print(f"[saved to {JSON_PATH}]")
    assert result["verified"]
    # The headline claim: first-100-ids >= 10x faster than eager
    # materialisation at 20% selectivity on the full-size workload.
    # Wall-clock bounds are machine-dependent, so the assertion is
    # opt-in like the throughput one; the JSON artifact (and the
    # regression gate's full-size invariant) track the trajectory.
    if not smoke and scale >= 1.0 and os.environ.get("REPRO_ASSERT_SPEEDUP"):
        headline = result["headline"]
        assert headline["speedup_first_page_vs_eager"] >= 10.0, headline


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
