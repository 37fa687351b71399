"""Replication benchmark — bootstrap, WAL-shipping catch-up, steady lag.

Bootstraps a cold follower from the primary's checkpoint manifest, bulk
catches up on the acknowledged WAL backlog, then ships live mutation
bursts — verifying the follower's materialised column bit-identical to a
NumPy oracle and its local log a byte prefix of the primary's *before*
any timing is trusted.  The machine-readable result lands in
``benchmarks/results/BENCH_replication.json``.

Runs two ways:

* under pytest with the rest of the benchmark suite (scaled by
  ``REPRO_SCALE``; ``REPRO_SMOKE=1`` shrinks it further);
* standalone — ``python benchmarks/bench_replication.py [--smoke]`` —
  which is what CI uses to publish the JSON artifact per PR.
"""

import argparse
import os
import pathlib
import sys

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"
JSON_PATH = RESULTS_DIR / "BENCH_replication.json"


def _run(smoke: bool, scale: float):
    from repro.bench.replication import (
        render_replication_study,
        run_replication_study,
        scaled_defaults,
    )
    from repro.bench.runner import write_result

    sizes = scaled_defaults(scale)
    result = run_replication_study(
        n_rows=sizes["n_rows"], n_mutations=sizes["n_mutations"], smoke=smoke
    )
    write_result(result, JSON_PATH)
    return result, render_replication_study(result)


def test_replication(save_result):
    smoke = os.environ.get("REPRO_SMOKE", "") not in ("", "0")
    scale = float(os.environ.get("REPRO_SCALE", "1.0"))
    result, text = _run(smoke=smoke, scale=scale)
    save_result("replication", text)
    print(f"[saved to {JSON_PATH}]")
    assert result["verified"], (
        "follower state diverged from the NumPy oracle"
    )
    assert result["headline"]["final_lag"] == 0


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
    if not result["verified"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
