"""Keep-alive connections: reused when sound, never when suspect.

``ServingClient`` keeps idle HTTP/1.1 connections and sends the next
request on one of them.  The contracts:

* sequential requests ride one connection;
* a request that is cancelled or times out partway closes its
  connection — the next request never reads the dead one's answer;
* a pooled connection the server has closed is retried once on a fresh
  connection, transparently; a fresh connection is never retried;
* a ``Connection: close`` response is honoured;
* the pool belongs to its event loop: one client works under two
  successive ``asyncio.run`` calls;
* at most ``MAX_IDLE`` connections stay idle, and ``close()`` closes
  them all;
* ``ServingHTTPServer.close()`` closes idle keep-alive connections and
  returns promptly; a request in flight still gets its answer.
"""

import asyncio
import gc
import threading
import warnings

import numpy as np
import pytest

from repro.core import ColumnImprints
from repro.engine import QueryExecutor
from repro.serving import (
    ChaosConfig,
    ChaosIndex,
    ImprintService,
    ServingClient,
    ServingConfig,
    ServingHTTPServer,
)
from repro.serving.client import MAX_IDLE
from repro.storage import Column

from .conftest import make_clustered

BASE = make_clustered(20_000, np.int32, seed=31)
LOW, HIGH = 9_000, 11_000
OTHER_LOW, OTHER_HIGH = 10_000, 10_400

#: Seconds any one test's event loop may run: a client that reads a
#: stale or never-sent response fails the test instead of hanging it.
TIMEOUT = 20.0


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, TIMEOUT))


def oracle(low, high) -> list:
    return np.flatnonzero((BASE >= low) & (BASE < high)).tolist()


def make_service(kernel_latency=0.0, max_inflight=8):
    index = ChaosIndex(
        ColumnImprints(Column(BASE, name="t.x")),
        ChaosConfig(kernel_latency=kernel_latency),
    )
    executor = QueryExecutor({"x": index}, batch_window=0.001, max_batch=16)
    return ImprintService(
        executor,
        ServingConfig(max_inflight=max_inflight, default_timeout=5.0),
    )


class CountingServer(ServingHTTPServer):
    """Counts accepted connections and the ones still open."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.accepted = 0
        self.open = 0

    async def _handle_connection(self, reader, writer):
        self.accepted += 1
        self.open += 1
        try:
            await super()._handle_connection(reader, writer)
        finally:
            self.open -= 1


def running(service):
    return service.admission.snapshot().inflight == 1


async def until(condition, limit=2.0):
    """Poll ``condition`` until it holds (or ``limit`` seconds pass)."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + limit
    while not condition() and loop.time() < deadline:
        await asyncio.sleep(0.005)
    return condition()


def scenario(test, kernel_latency=0.0):
    """Run ``test(service, server, client)`` against a live server."""
    service = make_service(kernel_latency)

    async def body():
        try:
            async with CountingServer(service) as server:
                client = ServingClient(*server.address)
                try:
                    await test(service, server, client)
                finally:
                    await client.close()
        finally:
            await service.close()

    run(body())


async def fake_server(handler):
    """A raw TCP server running ``handler(reader, writer)``; counts
    accepts in ``server.accepted``."""
    accepted = []

    async def handle(reader, writer):
        accepted.append(writer)
        try:
            await handler(reader, writer)
        finally:
            writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    server.accepted = accepted
    return server


class TestReuse:
    def test_sequential_requests_share_one_connection(self):
        async def test(service, server, client):
            for low, high in ((LOW, HIGH), (OTHER_LOW, OTHER_HIGH)) * 3:
                response = await client.query(
                    "x", low, high, mode="full", retry=False
                )
                assert response.status == 200
                assert response.body["ids"] == oracle(low, high)
            assert (await client.healthz()).status == 200
            assert server.accepted == 1

        scenario(test)

    def test_connection_close_response_is_honoured(self):
        async def answer(reader, writer):
            await reader.readuntil(b"\r\n\r\n")
            writer.write(
                b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n"
                b"Connection: close\r\n\r\n{}"
            )
            await writer.drain()
            await reader.read()  # until the client hangs up

        async def body():
            server = await fake_server(answer)
            async with server:
                port = server.sockets[0].getsockname()[1]
                async with ServingClient("127.0.0.1", port) as client:
                    for _ in range(2):
                        assert (await client.healthz()).status == 200
                assert len(server.accepted) == 2

        run(body())


class TestFailedRequests:
    @pytest.mark.parametrize("how", ["cancel", "timeout"])
    def test_abandoned_request_does_not_poison_the_pool(self, how):
        async def test(service, server, client):
            # one sound request first, so a connection sits in the pool
            warm = await client.query("x", OTHER_LOW, OTHER_HIGH, retry=False)
            assert warm.status == 200 and server.accepted == 1

            slow = asyncio.ensure_future(
                client.query("x", LOW, HIGH, mode="full", retry=False)
            )
            assert await until(lambda: running(service))  # kernel sleeping
            if how == "cancel":
                slow.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await slow
            else:
                with pytest.raises(asyncio.TimeoutError):
                    await asyncio.wait_for(slow, 0.01)

            response = await client.query(
                "x", OTHER_LOW, OTHER_HIGH, mode="full", retry=False
            )
            assert response.status == 200
            assert response.body["low"] == OTHER_LOW
            assert response.body["ids"] == oracle(OTHER_LOW, OTHER_HIGH)
            # the abandoned connection was closed, not handed back
            assert server.accepted == 2
            assert await until(lambda: service.stats.cancelled == 1)

        scenario(test, kernel_latency=0.2)

    def test_pooled_connection_closed_by_the_server_is_retried(self):
        async def test(service, server, client):
            first = await client.query("x", LOW, HIGH, retry=False)
            assert first.status == 200 and len(client._idle) == 1
            # The server drops the idle connection; the client sends its
            # next request on it before it can notice.
            for writer in list(server._idle):
                writer.close()
            response = await client.query(
                "x", LOW, HIGH, mode="full", retry=False
            )
            assert response.status == 200
            assert response.body["ids"] == oracle(LOW, HIGH)
            assert server.accepted == 2

        scenario(test)

    def test_fresh_connection_is_never_retried(self):
        async def hang_up(reader, writer):
            await reader.readuntil(b"\r\n\r\n")

        async def body():
            server = await fake_server(hang_up)
            async with server:
                port = server.sockets[0].getsockname()[1]
                async with ServingClient("127.0.0.1", port) as client:
                    with pytest.raises(ConnectionError):
                        await client.healthz()
                assert len(server.accepted) == 1

        run(body())


class TestLoopsAndClosing:
    def test_one_client_under_two_event_loops(self):
        """The server runs on its own loop in a thread; the client is
        used from two successive ``asyncio.run`` calls."""
        ready = threading.Event()
        state = {}

        async def serve():
            service = make_service()
            server = await CountingServer(service).start()
            state.update(
                loop=asyncio.get_running_loop(), server=server,
                stop=asyncio.Event(),
            )
            ready.set()
            await state["stop"].wait()
            await server.close()
            await service.close()

        thread = threading.Thread(target=asyncio.run, args=(serve(),))
        thread.start()
        try:
            assert ready.wait(10)
            client = ServingClient(*state["server"].address)

            async def ask():
                response = await client.query(
                    "x", LOW, HIGH, mode="full", retry=False
                )
                assert response.status == 200
                assert response.body["ids"] == oracle(LOW, HIGH)

            run(ask())
            run(ask())
            run(client.close())
            # the first loop's connection could not be reused
            assert state["server"].accepted == 2
            # It died with its loop, unclosed; reclaim it here rather
            # than in whichever later test the collector runs in.
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ResourceWarning)
                gc.collect()
        finally:
            state["loop"].call_soon_threadsafe(state["stop"].set)
            thread.join(10)
        assert not thread.is_alive()

    def test_idle_cap_and_close_leave_no_open_sockets(self):
        async def test(service, server, client):
            n = MAX_IDLE + 3
            responses = await asyncio.gather(*(
                client.query("x", LOW, HIGH, mode="full", retry=False)
                for _ in range(n)
            ))
            assert all(r.body["ids"] == oracle(LOW, HIGH) for r in responses)
            assert server.accepted == n
            assert len(client._idle) == MAX_IDLE
            assert await until(lambda: server.open == MAX_IDLE)
            await client.close()
            assert client._idle == []
            assert await until(lambda: server.open == 0)

        scenario(test)

    def test_server_close_with_an_idle_connection(self):
        async def body():
            service = make_service()
            try:
                server = await CountingServer(service).start()
                client = ServingClient(*server.address)
                assert (await client.query("x", LOW, HIGH)).status == 200
                assert len(client._idle) == 1 and server.open == 1
                await asyncio.wait_for(server.close(), 2.0)
                assert await until(lambda: server.open == 0)

                async with CountingServer(service) as other:
                    assert other.port != server.port
                    client.port = other.port
                    response = await client.query(
                        "x", LOW, HIGH, mode="full", retry=False
                    )
                    assert response.status == 200
                    assert response.body["ids"] == oracle(LOW, HIGH)
                    await client.close()
            finally:
                await service.close()

        run(body())

    def test_server_close_answers_the_request_in_flight(self):
        async def test(service, server, client):
            inflight = asyncio.ensure_future(
                client.query("x", LOW, HIGH, mode="full", retry=False)
            )
            assert await until(lambda: running(service))  # kernel sleeping
            await asyncio.wait_for(server.close(), 2.0)
            response = await inflight
            assert response.status == 200
            assert response.headers["connection"] == "close"
            assert response.body["ids"] == oracle(LOW, HIGH)
            assert client._idle == []
            assert await until(lambda: server.open == 0)

        scenario(test, kernel_latency=0.2)
