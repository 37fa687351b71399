"""Self-test of the benchmark harness.

Run from the repository root::

    python3 perfbench/selftest.py

It checks, on small inputs:

* one seed generates byte-identical inputs for every workload, and
  another seed does not;
* a short run of every workload, scored as ``run.py`` scores it,
  passes its oracle, and the same run with one answer corrupted where
  it enters the harness fails with exit code 1 — for ``serve_ids`` the
  decoded response of the program's ``ServingClient``, for the
  in-process workloads the value the ``QueryExecutor`` returns;
* ``BENCHMARK.json`` lists exactly the metrics and workloads ``run.py``
  has, and ``perfbench/traffic.json`` describes exactly those workloads;
* without the program's source next to it, ``run.py`` exits non-zero.

Exit code 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import io
import itertools
import json
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import inputs, metrics, run  # noqa: E402

SMALL = {"serve_ids": 200_000, "ingest": 100_000, "scan": 200_000}


def input_fingerprints(seed: int) -> dict:
    serve = inputs.serve_ids_inputs(seed, 50_000, 50.0, 2.0)
    scan = inputs.scan_inputs(seed, 50_000)
    ingest = inputs.ingest_inputs(seed, 50_000)
    writes = inputs.ingest_writes(ingest, 64)
    reads = inputs.ingest_reads(ingest)
    ops = [next(writes) for _ in range(32)] + [next(reads) for _ in range(32)]
    return {
        "serve_ids": inputs.fingerprint(
            serve.values, serve.warmup, serve.timed,
            list(itertools.islice(serve.closed, 200)), serve.offsets),
        "scan": inputs.fingerprint(*scan.columns.values(), [
            op[2:] for op in itertools.islice(scan.timed, 200)]),
        "ingest": inputs.fingerprint(ingest.values, *[
            op[1] if op[0] == "append" else op[1:] for op in ops]),
    }


def check_seeds() -> None:
    first, again, other = (input_fingerprints(s) for s in (5, 5, 6))
    for name in first:
        assert first[name] == again[name], f"{name}: same seed, other inputs"
        assert first[name] != other[name], f"{name}: other seed, same inputs"
    print("ok  seeds: same seed same bytes, other seed other bytes")


def check_manifests() -> None:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in manifest["per_layer"]}
    assert e2e == metrics.END_TO_END, "BENCHMARK.json end_to_end drifted"
    assert layers == metrics.PER_LAYER, "BENCHMARK.json per_layer drifted"
    names = [w["name"] for w in manifest["workloads"]]
    assert sorted(names) == sorted(run.WORKLOADS), "BENCHMARK.json workloads drifted"
    traffic = json.loads((ROOT / "perfbench" / "traffic.json").read_text())
    assert sorted(traffic["workloads"]) == sorted(names), "traffic.json workloads drifted"
    for layer in traffic["layer_map"]:
        for name in layer["metrics"]:
            assert name in layers or name in e2e, f"unknown metric {name}"
    print("ok  manifests: BENCHMARK.json and traffic.json match the harness")


def _run(workload: str) -> tuple[int, dict | None]:
    """A short, small run, scored as ``run.py`` scores it."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return run.execute(workload, 7, 2.0, False, rows=SMALL[workload])


@contextlib.contextmanager
def corrupt_first(owner, attr: str, corrupt):
    """Make the first answer of ``owner.attr`` wrong, then restore it."""
    original = owner.__dict__[attr]
    state = {"done": False}

    def once(result):
        if state["done"]:
            return result
        changed = corrupt(result)
        state["done"] = changed is not None
        return result if changed is None else changed

    if inspect.iscoroutinefunction(original):
        @functools.wraps(original)
        async def wrapper(*args, **kwargs):
            return once(await original(*args, **kwargs))
    else:
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return once(original(*args, **kwargs))
    setattr(owner, attr, wrapper)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def _bump_ids(response):
    ids = response.body.get("ids") if response.status == 200 else None
    if not ids:
        return None
    ids[0] += 1
    return response


def _bump_scalar(value):
    return None if value is None else value + 1


def check_oracles() -> None:
    from repro.engine.executor import QueryExecutor
    from repro.serving.client import ServingClient

    corruptions = {
        "serve_ids": (ServingClient, "query", _bump_ids),
        "ingest": (QueryExecutor, "aggregate", _bump_scalar),
        "scan": (QueryExecutor, "aggregate", _bump_scalar),
    }
    for workload, (owner, attr, corrupt) in corruptions.items():
        code, last = _run(workload)
        assert code == 0, f"{workload}: clean run failed ({code})"
        assert last["correct"] and set(last["metrics"]) == set(metrics.END_TO_END)
        with corrupt_first(owner, attr, corrupt):
            code, last = _run(workload)
        assert code == 1, f"{workload}: corrupted answer not caught ({code})"
        assert last["correct"] is False
        print(f"ok  {workload}: clean run passes, one corrupted answer fails it")


def check_bare_directory() -> None:
    bare = ROOT / ".perfbench_tmp" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "scan",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  bare directory: exits non-zero without printing a result")


def main() -> int:
    check_seeds()
    check_manifests()
    check_bare_directory()
    check_oracles()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
