"""Timed phases cut into calibrated windows, scored on the least-stolen ones.

A shared virtual machine's speed drifts in two ways, and raw times of
the same code spread by a quarter or more from run to run:

* *contention*: while the program runs, neighbours on the same host
  slow it down through shared cores, caches and memory; on a 2-vCPU
  cloud VM a fixed kernel ran 30% faster in one second than in the next;
* *steal*: the hypervisor takes the virtual CPU away altogether, for
  bursts of a fraction of a second and, in busy stretches of many
  minutes, for a fifth to a half of the time ("steal", the eighth
  figure of the ``cpu`` lines in ``/proc/stat``).

So every timed phase runs as a row of short windows, and each window's
times are *calibrated* (:class:`Calibration`).  For contention, a fixed
reference kernel (:func:`reference_ms`, plain Python and NumPy, no part
of the program) is timed in CPU time at each window's edges; CPU time
excludes steal, so the reference measures how fast the machine runs
while it runs.  For steal, the window's ticks in ``/proc/stat`` give
the share of the time the guest wanted to run that the hypervisor took
(steal over steal plus busy: an idle CPU is never stolen from).  A
window's times are multiplied by :data:`REF_MS` over the reference's
time and by the share not stolen.
A calibrated figure is the time an operation takes on a machine that
runs the reference in :data:`REF_MS` and is never stolen from: it moves
when the program does more or less work, and much less when the machine
speeds up or slows down.  :class:`SetupClock` calibrates set-up times
the same way.

The metrics also pool only the :data:`KEEP` share of windows with the
least stolen share: a burst that stalls a few operations for tens
of milliseconds moves the tail in a way no factor corrects.  The choice
looks only at steal, never at the latencies, so it favours no result;
where the kernel reports no steal, every window ties and the earliest
windows are kept.  ``ingest`` scores the less-stolen window of each
neighbouring pair instead (:func:`pairwise`), so every phase of its
checkpoint cycle stays in.
"""

from __future__ import annotations

import math
import time

import numpy as np

#: Seconds per window.  Steal comes in bursts of a fraction of a second;
#: windows this short let the selection leave the bursts out, where
#: one-second windows would each hold some.  A window still holds tens
#: of operations on every workload.
WINDOW = 0.25
KEEP = 0.5        # share of windows scored, least stolen first
#: The reference kernel's CPU time (ms) at the speed calibrated figures
#: are expressed at: about its median between the windows of the
#: in-process workloads on a 2-vCPU cloud VM, so there calibrated and
#: raw times are alike while nothing is stolen.
REF_MS = 3.5
#: Stolen share above which a window's factor stops following it, so a
#: window stolen almost whole cannot scale its times to nothing.
MAX_STOLEN = 0.8

_REF_VALUES: list = []


def reference_ms() -> float:
    """CPU time (ms) of one run of a fixed reference kernel: dict and
    sort work in the interpreter, then a NumPy range scan over a 4 MiB
    array.  That is twice a core's L2 cache on the machines this was
    tuned on, so the scan is served from the shared cache, as the
    program's column scans are, and slows down with the same
    contention."""
    if not _REF_VALUES:
        _REF_VALUES.append(np.random.default_rng(7).integers(
            0, 1 << 20, 1 << 20, dtype=np.int32))
        reference_ms()                      # fault the pages in, untimed
    values = _REF_VALUES[0]
    started = time.thread_time()
    table = {}
    for i in range(4000):
        table[i] = (i * 7919) % 1009
    sorted(table.values())
    np.flatnonzero((values >= 1000) & (values < 300_000))
    return (time.thread_time() - started) * 1e3


def cpu_ticks() -> tuple[int, int]:
    """Cumulative ``(busy, steal)`` ticks of all CPUs; busy is user,
    nice, system, irq and softirq time.  ``(0, 0)`` where not reported."""
    try:
        with open("/proc/stat") as stat:
            fields = [int(f) for f in stat.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    if len(fields) < 8:
        return 0, 0
    user, nice, system, _, _, irq, softirq, steal = fields
    return user + nice + system + irq + softirq, steal


def stolen_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    """Share of the guest's runnable CPU time the hypervisor took between
    two :func:`cpu_ticks` readings."""
    busy, steal = after[0] - before[0], after[1] - before[1]
    return steal / (busy + steal) if busy + steal > 0 else 0.0


def speed(before_ms: float, after_ms: float, stolen: float) -> float:
    """Factor from raw to calibrated time for a stretch that lost the
    share ``stolen`` to steal and lies between two reference timings."""
    return 2.0 * REF_MS / (before_ms + after_ms) * (1.0 - min(stolen, MAX_STOLEN))


class Calibration:
    """Reference timings at window edges: each :meth:`close` times the
    reference and sets the window's :attr:`Window.scale` from it, the
    timing at the window's start and the window's stolen share."""

    def __init__(self) -> None:
        self.last = reference_ms()

    def close(self, window: "Window") -> None:
        now = reference_ms()
        window.scale = speed(self.last, now, window.stolen)
        self.last = now


class SetupClock:
    """Calibrated time of one set-up: starts when made, read by :meth:`stop`."""

    def __init__(self) -> None:
        self.before = reference_ms()
        self.ticks = cpu_ticks()
        self.started = time.perf_counter()

    def stop(self) -> float:
        seconds = time.perf_counter() - self.started
        stolen = stolen_share(self.ticks, cpu_ticks())
        return seconds * speed(self.before, reference_ms(), stolen)


def time_setup(build):
    """``(calibrated seconds, result)`` of ``build()``."""
    clock = SetupClock()
    result = build()
    return clock.stop(), result


class Window:
    """One window: scored latencies, scored operations, its length, the
    time the caller spent inside the program (``busy``), its stolen
    share and its calibration ``scale`` (raw to calibrated time)."""

    __slots__ = ("latencies", "ops", "seconds", "busy", "stolen", "scale")

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.ops = 0
        self.seconds = 0.0
        self.busy = 0.0
        self.stolen = 0.0
        self.scale = 1.0


def one_window(seconds: float, call) -> Window:
    """Run ``call()`` back to back for ``seconds``.  ``call`` returns
    ``(latency_ms, scored)``; an unscored operation (an ingest write)
    still counts as time spent in the program."""
    window = Window()
    ticks = cpu_ticks()
    started = time.perf_counter()
    stop = started + seconds
    while time.perf_counter() < stop:
        latency, scored = call()
        window.busy += latency / 1e3
        if scored:
            window.latencies.append(latency)
            window.ops += 1
    window.seconds = time.perf_counter() - started
    window.stolen = stolen_share(ticks, cpu_ticks())
    return window


def next_length(left: float, length: float) -> float:
    """A window's length; a remainder shorter than half a window joins
    the last window rather than standing alone (a short window with no
    steal in it would rank first on almost no samples)."""
    return left if left < 1.5 * length else length


def measure(seconds: float, call) -> list[Window]:
    windows = []
    calibration = Calibration()
    stop = time.perf_counter() + seconds
    while (left := stop - time.perf_counter()) > 0:
        windows.append(one_window(next_length(left, WINDOW), call))
        calibration.close(windows[-1])
    return windows


def alternate(seconds: float, call, install, uninstall, block: float = 0.5):
    """Windows of ``block`` seconds alternating untraced and traced
    (``call(traced)``, returning like :func:`one_window`'s), so the traced and untraced latencies behind
    ``trace.overhead`` see the same drift of the run."""
    untraced, traced = [], []
    calibration = Calibration()
    stop = time.perf_counter() + seconds
    on = False
    while (left := stop - time.perf_counter()) > 0:
        if on:
            install()
        try:
            window = one_window(next_length(left, block), lambda: call(on))
        finally:
            if on:
                uninstall()
        calibration.close(window)
        (traced if on else untraced).append(window)
        on = not on
    return untraced, traced


def kept(windows: list[Window]) -> list[Window]:
    """The :data:`KEEP` share of windows with the least stolen share."""
    ranked = sorted(windows, key=lambda w: w.stolen)
    return ranked[:max(1, math.ceil(KEEP * len(windows)))]


def pairwise(windows: list[Window]) -> list[Window]:
    """The less-stolen window of each pair of neighbours.  Neighbours
    share the phase of a workload whose state moves along the run
    (``ingest``: the checkpoint cycle), so every phase stays in the
    score, where :func:`kept` could drop a whole phase."""
    return [min(windows[i:i + 2], key=lambda w: w.stolen)
            for i in range(0, len(windows), 2)]


def pooled(windows: list[Window], per_busy: bool = False, select=kept,
           calibrated: bool = True):
    """Scored latencies and operations per second of ``select(windows)``,
    in calibrated time unless ``calibrated`` is false.

    ``per_busy`` divides by the time the caller spent inside the
    program rather than by wall time, so the harness's own work between
    calls (answer checks, oracle upkeep) does not count against it."""
    chosen = select(windows)
    factor = [w.scale if calibrated else 1.0 for w in chosen]
    latencies = [ms * f for w, f in zip(chosen, factor) for ms in w.latencies]
    seconds = sum((w.busy if per_busy else w.seconds) * f
                  for w, f in zip(chosen, factor))
    return latencies, sum(w.ops for w in chosen) / max(seconds, 1e-9)


def median_scale(windows: list[Window]) -> float:
    """The run's typical calibration factor (printed, not scored)."""
    return float(np.median([w.scale for w in windows]))


def steal_share(windows: list[Window]) -> float:
    """Time-weighted mean stolen share of ``windows`` (printed, not scored)."""
    seconds = sum(w.seconds for w in windows)
    return sum(w.stolen * w.seconds for w in windows) / max(seconds, 1e-9)
