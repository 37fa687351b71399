"""Serving-layer load benchmark — open-loop overload via the HTTP stack.

Fires an open-loop request stream at ~4x the admission envelope's
capacity through the real asyncio HTTP service and checks the overload
contract: every request accounted for (served + fast-rejected +
timed-out = issued), served answers correct against a pre-computed
oracle even when degraded, accepted-request p50/p95/p99 recorded.  The
machine-readable result lands in
``benchmarks/results/BENCH_serving.json``.

Runs two ways:

* under pytest with the rest of the benchmark suite (scaled by
  ``REPRO_SCALE``; ``REPRO_SMOKE=1`` shrinks it further);
* standalone — ``python benchmarks/bench_serving.py [--smoke]`` —
  which is what CI uses to publish the JSON artifact per PR.
"""

import argparse
import os
import pathlib
import sys

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"
JSON_PATH = RESULTS_DIR / "BENCH_serving.json"


def _run(smoke: bool, scale: float):
    from repro.bench.serving import (
        render_serving_study,
        run_serving_study,
        scaled_defaults,
    )
    from repro.bench.runner import write_result

    sizes = scaled_defaults(scale)
    result = run_serving_study(
        n_rows=sizes["n_rows"], n_requests=sizes["n_requests"], smoke=smoke
    )
    write_result(result, JSON_PATH)
    return result, render_serving_study(result)


def test_serving(save_result):
    smoke = os.environ.get("REPRO_SMOKE", "") not in ("", "0")
    scale = float(os.environ.get("REPRO_SCALE", "1.0"))
    result, text = _run(smoke=smoke, scale=scale)
    save_result("serving", text)
    print(f"[saved to {JSON_PATH}]")
    assert result["completed"], "open-loop run did not finish (deadlock?)"
    assert result["accounting_balanced"], result
    assert result["verified"], "a served answer disagreed with the oracle"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="shrunken workload for CI",
    )
    parser.add_argument(
        "--scale", type=float,
        default=float(os.environ.get("REPRO_SCALE", "1.0")),
    )
    args = parser.parse_args(argv)
    result, text = _run(smoke=args.smoke, scale=args.scale)
    print(text)
    print(f"[saved to {JSON_PATH}]")
    if not (
        result["completed"]
        and result["accounting_balanced"]
        and result["verified"]
    ):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
