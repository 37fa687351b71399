"""The HTTP workload ``serve_ids``.

The program runs in a host process (:mod:`perfbench.host`); this
process is the load generator.  It drives the server with the
program's own ``ServingClient``, never more than two requests in
flight (one per core of a two-core machine):

1. warm-up: untimed, closed loop, requests not used later;
2. ``--trace 0``: closed loop for ``--seconds`` — two connections, each
   sending its next request when the last one answered.  Latency runs
   from send to decoded response; ``ops_per_s`` counts answers.  The
   loop runs in windows of :data:`perfbench.windows.WINDOW` seconds;
   between two, with no request in flight, the reference kernel is
   timed, and each window's figures are calibrated by it
   (:mod:`perfbench.windows`).
3. ``--trace 1``: open loop — requests sent on a seeded Poisson
   schedule at a fixed rate, latency from each request's *scheduled*
   send time, so a stall also charges the requests queued behind it —
   in blocks that alternate untraced and traced, for the per-layer
   breakdown, the generator's lateness and the open-loop latencies.

The end-to-end figures come from the closed loop because open-loop
latency on a shared two-core virtual machine swings by half from run
to run with the hypervisor's steal time: queueing amplifies every lost
millisecond.  Every answer is checked against the NumPy oracle after
the timed phases.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import pathlib
import subprocess
import sys
import time

import numpy as np

from . import inputs
from .metrics import executor_metrics, layer_means, pct
from .oracle import SortedOracle, check
from .windows import (WINDOW, Calibration, Window, median_scale, next_length,
                      pooled, steal_share, stolen_share, cpu_ticks)

HOST = pathlib.Path(__file__).resolve().parent / "host.py"
IN_FLIGHT = 2

ROWS = 2_000_000
#: The open-loop rate sits well below what the stack answers on a
#: two-core machine, so the schedule, not the server, sets the pace and
#: a late generator is a fault, not load.
RATE = 50.0
BEHIND = 0.95              # achieved/scheduled rate below this: flagged
BLOCK = 1.0                # seconds per traced/untraced block


class GeneratorBehind(RuntimeError):
    """The load generator could not keep its schedule: not scored."""


class Host:
    """The host process, with its stdin/stdout command channel."""

    def __init__(self, seed: int, rows: int) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HOST), "--seed", str(seed), "--rows", str(rows)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.ready = self._read()

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("host process exited unexpectedly")
        return json.loads(line)

    def command(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        try:
            if self.proc.poll() is None:
                self.proc.stdin.write("quit\n")
                self.proc.stdin.flush()
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()

    def __enter__(self) -> "Host":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# workload definitions: what to send, and how to check the answer
# ----------------------------------------------------------------------
class ServeIds:
    column = "serve_ids"

    def __init__(self, seed: int, rows: int, rate: float, open_seconds: float):
        self.inputs = inputs.serve_ids_inputs(seed, rows, rate, open_seconds)
        self.oracle = SortedOracle(self.inputs.values)

    def key(self, request) -> list:
        low, high = request
        return ["query", low, high]

    async def send(self, client, request):
        low, high = request
        return await client.query(self.column, low, high, mode="full",
                                  retry=False)

    def digest(self, body: dict):
        """Hash the id list right away, so a run never holds thousands
        of decoded id lists; the oracle hashes its ids the same way."""
        ids = np.asarray(body["ids"], dtype=np.int64)
        return body["count"], ids.shape[0], hashlib.sha256(ids.tobytes()).hexdigest()

    def check(self, request, answer) -> None:
        low, high = request
        expected = self.oracle.ids(low, high)
        count, n_ids, digest = answer
        what = f"/query [{low}, {high})"
        check(count == expected.shape[0],
              f"{what}: count {count} != oracle {expected.shape[0]}")
        check(n_ids == expected.shape[0] and digest == hashlib.sha256(
            expected.tobytes()).hexdigest(), f"{what}: ids differ from the oracle")


# ----------------------------------------------------------------------
# load generation
# ----------------------------------------------------------------------
class Outcome:
    __slots__ = ("request", "due", "sent", "end", "status", "answer", "nbytes",
                 "key")

    def __init__(self, request, due, sent):
        self.request = request
        self.due = due
        self.sent = sent
        self.end = None
        self.status = None
        self.answer = None
        self.nbytes = 0
        self.key = None


async def _one(workload, client, outcome: Outcome, slots) -> None:
    try:
        response = await workload.send(client, outcome.request)
        outcome.end = time.monotonic()
        outcome.status = response.status
        outcome.nbytes = int(response.headers.get("content-length", 0))
    except OSError:
        outcome.end = time.monotonic()
        outcome.status = -1
        response = None
    finally:
        if slots is not None:
            slots.release()
    if response is not None and response.status == 200:
        outcome.answer = workload.digest(response.body)


async def open_loop(workload, client, requests, offsets) -> list:
    """Send ``requests[i]`` at ``offsets[i]`` seconds after the start;
    at most :data:`IN_FLIGHT` outstanding."""
    slots = asyncio.Semaphore(IN_FLIGHT)
    tasks, outcomes = [], []
    start = time.monotonic() + 0.01
    for request, offset in zip(requests, offsets):
        due = start + float(offset)
        delay = due - time.monotonic()
        if delay > 0:
            await asyncio.sleep(delay)
        await slots.acquire()
        outcome = Outcome(request, due, time.monotonic())
        outcomes.append(outcome)
        tasks.append(asyncio.ensure_future(_one(workload, client, outcome, slots)))
    await asyncio.gather(*tasks)
    return outcomes


def rate_share(outcomes) -> float:
    """Scheduled over achieved time from first to last send: below 1
    when the generator could not keep its schedule."""
    if len(outcomes) < 2:
        return 1.0
    achieved = outcomes[-1].sent - outcomes[0].sent
    scheduled = outcomes[-1].due - outcomes[0].due
    return scheduled / achieved if achieved > 0 else 1.0


class StealLog:
    """CPU ticks sampled every 50 ms while the load runs, so windows
    cut from the open-loop schedule afterwards know their stolen share."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.ticks: list[tuple[int, int]] = []

    async def run(self) -> None:
        while True:
            self.times.append(time.monotonic())
            self.ticks.append(cpu_ticks())
            await asyncio.sleep(0.05)

    def at(self, moment: float) -> tuple[int, int]:
        i = max(0, int(np.searchsorted(self.times, moment, side="right")) - 1)
        return self.ticks[i] if self.ticks else (0, 0)


def bucket(outcomes, start: float, stop: float, log: StealLog,
           length: float = WINDOW) -> list[Window]:
    """Cut the open loop's ``[start, stop)`` into ``length``-second
    windows holding the outcomes due in each."""
    edges = list(np.arange(start, stop, length))
    if len(edges) > 1 and stop - edges[-1] < length / 2:
        edges.pop()  # a short remainder joins the last window
    edges.append(stop)
    windows = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        window = Window()
        window.seconds = hi - lo
        window.stolen = stolen_share(log.at(lo), log.at(hi))
        windows.append(window)
    for outcome in outcomes:
        i = min(len(windows) - 1, max(0, int((outcome.due - start) // length)))
        if outcome.status == 200:
            windows[i].ops += 1
            windows[i].latencies.append((outcome.end - outcome.due) * 1e3)
    return windows


async def alternate(workload, client, host, requests, offsets, log):
    """The open-loop schedule in blocks of :data:`BLOCK` seconds that
    alternate untraced and traced, so both see the same drift."""
    untraced, traced, everything, traced_outcomes = [], [], [], []
    edges = np.arange(0.0, float(offsets[-1]) + BLOCK, BLOCK)
    for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        a, b = np.searchsorted(offsets, [lo, hi])
        on = i % 2 == 1
        if on:
            host.command("trace on")
        started = time.monotonic()
        outcomes = await open_loop(
            workload, client, requests[a:b], offsets[a:b] - lo)
        if on:
            host.command("trace off")
        windows = bucket(outcomes, started, max(started + 1e-3, time.monotonic()),
                         log)
        (traced if on else untraced).extend(windows)
        everything.extend(outcomes)
        if on:
            traced_outcomes.extend(outcomes)
    return untraced, traced, everything, traced_outcomes


async def closed_loop(workload, client, requests, seconds: float) -> list:
    """:data:`IN_FLIGHT` connections, each sending its next request as
    soon as the last one answered, for ``seconds``."""
    feed = iter(requests)
    outcomes: list = []
    stop = time.monotonic() + seconds

    async def worker():
        for request in feed:
            if time.monotonic() >= stop:
                return
            outcome = Outcome(request, time.monotonic(), time.monotonic())
            outcomes.append(outcome)
            await _one(workload, client, outcome, None)

    await asyncio.gather(*(worker() for _ in range(IN_FLIGHT)))
    return outcomes


async def calibrated_loop(workload, client, requests, seconds: float):
    """:func:`closed_loop` for ``seconds``, one calibrated window at a
    time: ``(windows, outcomes)``."""
    feed = iter(requests)
    calibration = Calibration()
    windows: list[Window] = []
    outcomes: list = []
    stop = time.monotonic() + seconds
    while (left := stop - time.monotonic()) > 0:
        window = Window()
        ticks = cpu_ticks()
        started = time.monotonic()
        part = await closed_loop(workload, client, feed,
                                 next_length(left, WINDOW))
        window.seconds = time.monotonic() - started
        window.stolen = stolen_share(ticks, cpu_ticks())
        for outcome in part:
            if outcome.status == 200:
                window.ops += 1
                window.latencies.append((outcome.end - outcome.sent) * 1e3)
        calibration.close(window)
        windows.append(window)
        outcomes.extend(part)
    return windows, outcomes


def _check_all(workload, outcomes) -> None:
    for outcome in outcomes:
        if outcome.status == 200:
            workload.check(outcome.request, outcome.answer)


def _match(records: list[dict], outcomes: list) -> list[tuple]:
    """Pair each traced client request with the service span the host
    recorded for it: same request key, span inside the client's
    send-to-answer interval."""
    by_key: dict = {}
    for record in records:
        by_key.setdefault(json.dumps(record["key"]), []).append(record)
    pairs = []
    for outcome in outcomes:
        if outcome.status != 200:
            continue
        sent_ns, end_ns = int(outcome.sent * 1e9), int(outcome.end * 1e9)
        candidates = by_key.get(outcome.key, [])
        for i, record in enumerate(candidates):
            if sent_ns <= record["start"] and record["end"] <= end_ns:
                pairs.append((outcome, candidates.pop(i)))
                break
    return pairs


def run(seed: int, seconds: float, trace: bool, rows: int = ROWS) -> dict:
    workload = ServeIds(seed, rows, RATE, seconds)
    data = workload.inputs
    from repro.serving.client import ServingClient

    with Host(seed, rows) as host:
        client = ServingClient("127.0.0.1", host.ready["port"])
        loop = asyncio.new_event_loop()
        log = StealLog()
        sampler = loop.create_task(log.run())
        try:
            warm = loop.run_until_complete(
                closed_loop(workload, client, data.warmup, 60.0))
            if not trace:
                windows, timed = loop.run_until_complete(
                    calibrated_loop(workload, client, data.closed, seconds))
                peak_rss = host.command("stats")["peak_rss_mb"]
                setups = host.ready["setup_s"] + host.command("setup")["setup_s"]
            else:
                before = host.command("stats")["stats"]
                windows, traced_windows, timed, traced = loop.run_until_complete(
                    alternate(workload, client, host, data.timed,
                              data.offsets, log))
                after = host.command("stats")["stats"]
                records = host.command("trace dump")["records"]
        finally:
            sampler.cancel()
            loop.run_until_complete(asyncio.gather(sampler, return_exceptions=True))
            loop.close()

    _check_all(workload, warm)
    _check_all(workload, timed)
    attempted = len(timed)
    failed = sum(1 for o in timed if o.status != 200)
    latencies, ops_per_s = pooled(windows)
    raw = pooled(windows, calibrated=False)[0]
    info = {
        "samples": len(latencies),
        "failed_frac": failed / max(1, attempted),
        "raw_p50_ms": pct(raw, 50),
        "raw_p99_ms": pct(raw, 99),
        "calibration_scale": median_scale(windows),
        "steal_share": steal_share(windows + (traced_windows if trace else [])),
    }
    result = {"attempted": attempted, "failed": failed, "info": info}
    if not trace:
        result["e2e"] = {
            "p50_ms": pct(latencies, 50),
            "p99_ms": pct(latencies, 99),
            "ops_per_s": ops_per_s,
            "setup_s": float(np.median(setups)),
            "peak_rss_mb": peak_rss,
        }
        return result

    share = rate_share(timed)
    if share < BEHIND:
        raise GeneratorBehind(f"sent at {share:.1%} of the scheduled rate")
    late = [(o.sent - o.due) * 1e3 for o in timed]
    info.update({
        "open_loop_rate": RATE,
        "open_loop_p50_ms": pct(latencies, 50),
        "open_loop_p99_ms": pct(latencies, 99),
        "loadgen.late_p50_ms": pct(late, 50),
        "loadgen.late_max_ms": max(late),
    })
    traced = [o for o in traced if o.status == 200]
    for outcome in traced:
        outcome.key = json.dumps(workload.key(outcome.request))
    pairs = _match(records, traced)
    layers = layer_means([record for _, record in pairs])
    client_ms = [(o.end - o.sent) * 1e3 for o, _ in pairs]
    service_ms = [(r["end"] - r["start"]) / 1e6 for _, r in pairs]
    layers.update(executor_metrics(before, after))
    layers.update(host.ready["memory"])
    layers.update({
        "http.self_ms": float(np.mean(client_ms) - np.mean(service_ms)),
        "http.resp_bytes": float(np.mean([o.nbytes for o, _ in pairs])),
        "rowset.ids_per_answer": float(np.mean([o.answer[1] for o, _ in pairs])),
        "loadgen.late_p99_ms": pct(late, 99),
        "loadgen.rate_share": share,
        "trace.coverage": float(np.mean(
            [s / c for s, c in zip(service_ms, client_ms)])),
        "trace.overhead": pct(pooled(traced_windows)[0], 50) / pct(latencies, 50),
    })
    info["matched_spans"] = len(pairs)
    result["layers"] = layers
    return result
