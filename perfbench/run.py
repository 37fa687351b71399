"""The repository's benchmark: client-observed latency on three workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve_ids --seed 1 --seconds 20 --trace 0

Workloads (``BENCHMARK.json`` records why each exists):

``serve_ids``  HTTP ``/query?mode=full`` — materialising and encoding ids;
``ingest``     in-process durable writes interleaved with reads;
``scan``       in-process planner-routed, sharded kernel work.

The program is built from ``src/`` through its public constructors;
inputs come from ``--seed`` alone.  Every answer is checked against a
NumPy oracle, and a mismatch fails the run (exit code 1).  With
``--trace 0`` the last stdout line is a JSON object holding every
end-to-end metric; with ``--trace 1`` it holds every per-layer metric
instead, from a run with span wrappers installed around the program's
public entry points.  Lines before it print every figure by name with
its unit.

Every scored time is calibrated against the shared machine's speed:
scaled by a fixed reference kernel's CPU time, timed between the
measurement windows, and by the share of the window the hypervisor did
not steal (:mod:`perfbench.windows`).  The raw figures are printed too.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("serve_ids", "ingest", "scan")


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 **sizes) -> dict:
    """One run of workload ``name``; ``sizes`` (``rows=``) shrink it for
    the self-test."""
    if name == "serve_ids":
        from perfbench import http_bench
        return http_bench.run(seed, seconds, trace, **sizes)
    if name == "ingest":
        from perfbench import ingest
        return ingest.run(seed, seconds, trace, **sizes)
    from perfbench import scan
    return scan.run(seed, seconds, trace, **sizes)


def report(result: dict, trace: bool) -> dict:
    """The contract's last-line JSON object, after printing every
    figure by name with its unit."""
    from perfbench.metrics import END_TO_END, PER_LAYER

    wanted = PER_LAYER if trace else END_TO_END
    measured = result["layers"] if trace else result["e2e"]
    metrics = {}
    for name, unit in wanted.items():
        # A layer that does not run on this workload reads 0.
        value = float(measured.get(name, 0.0))
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:32s} {value:14.6g} {unit}")
    for name, value in result["info"].items():
        print(f"  {name:30s} {value}")
    return {
        "correct": True,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }


def execute(workload: str, seed: int, seconds: float, trace: bool,
            **sizes) -> tuple[int, dict | None]:
    """Run and score one workload: ``(exit code, last-line object)``,
    the object ``None`` when the run is not scored."""
    from perfbench.http_bench import GeneratorBehind
    from perfbench.oracle import OracleMismatch

    try:
        result = run_workload(workload, seed, seconds, trace, **sizes)
    except OracleMismatch as exc:
        print(f"error: answer differs from the oracle: {exc}", file=sys.stderr)
        return 1, {"correct": False, "attempted": 1, "failed": 0, "metrics": {}}
    except GeneratorBehind as exc:
        # The open-loop latencies are not valid: report, do not score.
        print(f"error: load generator fell behind its schedule: {exc}",
              file=sys.stderr)
        return 3, None
    return 0, report(result, trace)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    code, last = execute(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    if last is not None:
        print(json.dumps(last))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
