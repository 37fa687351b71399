"""The process that hosts the program for the HTTP workload ``serve_ids``.

Builds the stack the way ``repro serve`` does — ``QueryExecutor`` with
its defaults, then ``ImprintService``, then ``ServingHTTPServer`` —
over the column the workload generates from its seed, and serves it
until told to stop.  The load generator runs in another process, so
its JSON decoding never competes with the server for the interpreter
lock.

Protocol: one JSON line on stdout once serving (``port``, set-up times,
memory); then one command per stdin line, each answered by one JSON
line on stdout:

``trace on``   install the span wrappers;
``trace off``  remove them;
``trace dump`` answer the per-request attribution of every traced span;
``stats``      answer ``ImprintService.stats_payload()`` and peak RSS;
``setup``      rebuild the stack :data:`SETUPS` times more, dropping the
               last one before each build, and answer the set-up times
               (the load generator sends it after the timed phase);
``quit``       close the server and exit.

Run by ``perfbench/run.py``; not meant to be started by hand.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import inputs  # noqa: E402
from perfbench.metrics import MB, peak_rss_mb  # noqa: E402
from perfbench.trace import Tracer, install_program  # noqa: E402
from perfbench.windows import SetupClock  # noqa: E402

#: Set-ups timed before the timed phase and again after it; setup_s is
#: the median of both bursts.  A set-up's time follows the shared
#: machine's speed, which drifts over seconds, so the two bursts sample
#: it half a minute apart rather than at the run's first seconds only.
SETUPS = 16
COLUMN = "serve_ids"


def service_key(method: str):
    """Label a service span with what the client sent, for matching."""
    def key(args, kwargs):
        return [method, args[2], args[3]]
    return key


def memory(index) -> dict:
    return {
        "mem.column_mb": index.column.values.nbytes / MB,
        "mem.index_mb": index.nbytes / MB,
        "mem.sidecar_mb": 0.0,
        "mem.backends_mb": 0.0,
    }


def emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


async def serve(args) -> None:
    from repro.core import ColumnImprints
    from repro.engine.executor import QueryExecutor
    from repro.serving.http import ServingHTTPServer
    from repro.serving.service import ImprintService, ServingConfig
    from repro.storage import Column

    values = inputs.serve_ids_column(args.seed, args.rows)

    async def build() -> dict:
        index = ColumnImprints(Column(values, name=COLUMN))
        service = ImprintService(QueryExecutor({COLUMN: index}), ServingConfig())
        server = await ServingHTTPServer(service, port=0).start()
        return {"index": index, "service": service, "server": server}

    live: dict = {}

    async def rebuild(count: int) -> list[float]:
        """Build the stack ``count`` times, dropping the live one before
        each build so peak RSS counts one stack; the last stays live.
        The times are calibrated (:class:`perfbench.windows.SetupClock`)."""
        times = []
        for _ in range(count):
            if live:
                await live["server"].close()
                await live["service"].close()
                live.clear()
            clock = SetupClock()
            live.update(await build())
            times.append(clock.stop())
        return times

    setups = await rebuild(SETUPS)
    emit({"port": live["server"].port, "setup_s": setups,
          "memory": memory(live["index"])})

    loop = asyncio.get_running_loop()
    tracer = Tracer()
    try:
        while True:
            line = await loop.run_in_executor(None, sys.stdin.readline)
            command = line.strip()
            if command in ("", "quit"):
                break
            if command == "trace on":
                install_program(tracer, service_key=service_key)
                emit({"ok": True})
            elif command == "trace off":
                tracer.uninstall()
                emit({"ok": True})
            elif command == "trace dump":
                emit({"records": tracer.attribute(root_names=("service",))})
            elif command == "stats":
                emit({"stats": live["service"].stats_payload(),
                      "peak_rss_mb": peak_rss_mb()})
            elif command == "setup":
                emit({"setup_s": await rebuild(SETUPS)})
            else:
                emit({"error": f"unknown command {command!r}"})
    finally:
        await live["server"].close()
        await live["service"].close()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rows", type=int, required=True)
    asyncio.run(serve(parser.parse_args()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
