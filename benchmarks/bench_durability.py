"""Durability benchmark — WAL overhead, group commit, recovery time.

Drives the same mutation stream through (a) a bare in-memory
delta-aware index, (b) the write-ahead log with an fsync per mutation,
and (c) the WAL under a group-commit window; then reopens
un-checkpointed stores at growing log lengths and times recovery —
verifying the recovered logical column bit-identical to a NumPy oracle
*before* any timing is trusted.  The machine-readable result lands in
``benchmarks/results/BENCH_durability.json``.

Runs two ways:

* under pytest with the rest of the benchmark suite (scaled by
  ``REPRO_SCALE``; ``REPRO_SMOKE=1`` shrinks it further);
* standalone — ``python benchmarks/bench_durability.py [--smoke]`` —
  which is what CI uses to publish the JSON artifact per PR.
"""

import argparse
import os
import pathlib
import sys

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"
JSON_PATH = RESULTS_DIR / "BENCH_durability.json"


def _run(smoke: bool, scale: float):
    from repro.bench.durability import (
        render_durability_study,
        run_durability_study,
        scaled_defaults,
    )
    from repro.bench.runner import write_result

    sizes = scaled_defaults(scale)
    result = run_durability_study(
        n_rows=sizes["n_rows"], n_mutations=sizes["n_mutations"], smoke=smoke
    )
    write_result(result, JSON_PATH)
    return result, render_durability_study(result)


def test_durability(save_result):
    smoke = os.environ.get("REPRO_SMOKE", "") not in ("", "0")
    scale = float(os.environ.get("REPRO_SCALE", "1.0"))
    result, text = _run(smoke=smoke, scale=scale)
    save_result("durability", text)
    print(f"[saved to {JSON_PATH}]")
    assert result["verified"], (
        "recovered state diverged from the NumPy oracle"
    )
    assert all(r["bit_identical"] for r in result["recovery"])


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
