"""A minimal asyncio HTTP client with retry-and-jittered-backoff.

The counterpart of the serving layer's load shedding: a client that
treats 429/503 as the protocol working (back off, jitter, retry) rather
than as failures.  Used by the chaos suite and the open-loop load bench;
small enough to copy into a real deployment's SDK.

* :class:`ServingClient` — HTTP/1.1 GETs against a
  :class:`~repro.serving.http.ServingHTTPServer` over reused keep-alive
  connections, returning :class:`ClientResponse` (status, headers,
  decoded JSON).  ``query`` and ``page`` ask for ``format=binary`` and
  decode the ids back into the ``ids`` list, so callers see the same
  body as from the JSON format;
* :func:`retry_with_backoff` — drives any coroutine-returning callable
  through capped exponential backoff with full jitter, honouring the
  server's ``Retry-After`` hint when one is present.  Deterministic
  under a seeded :class:`random.Random`, so chaos runs are replayable.
"""

from __future__ import annotations

import asyncio
import base64
import json
import random
import urllib.parse
from dataclasses import dataclass, field

import numpy as np

__all__ = ["ClientResponse", "ServingClient", "retry_with_backoff"]

#: Statuses worth retrying: shed load, shutdown races, and a lagging
#: replication follower (``FollowerLagging`` → 503 with the lag in the
#: body and a ``Retry-After`` hint the backoff floor honours — by the
#: next attempt the follower has usually applied the missing frames).
RETRYABLE_STATUSES = frozenset({429, 503})

#: Idle keep-alive connections a client keeps; extra ones are closed.
MAX_IDLE = 4

#: ``ids_dtype`` values a binary-format body may carry.
_ID_DTYPES = ("<u4", "<u8")


class _StaleConnection(Exception):
    """A reused connection died before any byte of the response."""


def _close(writer: asyncio.StreamWriter) -> None:
    try:
        writer.close()
    except RuntimeError:
        pass  # its event loop is closed; the socket goes with the transport


def _decode_ids(body):
    """``body`` with a binary ``ids_b64`` + ``ids_dtype`` pair decoded
    back into the ``ids`` list of ints, in its place."""
    if not isinstance(body, dict) or "ids_b64" not in body:
        return body
    dtype = body.get("ids_dtype")
    if dtype not in _ID_DTYPES:
        raise ValueError(f"unknown ids_dtype {dtype!r}")
    ids = np.frombuffer(base64.b64decode(body["ids_b64"]), dtype=dtype)
    decoded = {}
    for key, value in body.items():
        if key == "ids_b64":
            decoded["ids"] = ids.tolist()
        elif key != "ids_dtype":
            decoded[key] = value
    return decoded


@dataclass
class ClientResponse:
    """One decoded HTTP response."""

    status: int
    headers: dict[str, str]
    body: dict

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    @property
    def retry_after(self) -> float | None:
        """The server's back-off hint in seconds, if it sent one.

        The JSON body's ``retry_after`` is preferred: the header form
        is an RFC 9110 integer delta-seconds (sub-second hints round
        up to 1), while the body carries the server's precise float.
        """
        raw = self.body.get("retry_after") if isinstance(self.body, dict) else None
        if raw is None:
            raw = self.headers.get("retry-after")
        if raw is None:
            return None
        try:
            return float(raw)
        except (TypeError, ValueError):
            return None


async def retry_with_backoff(
    attempt_fn,
    *,
    attempts: int = 5,
    base_delay: float = 0.02,
    max_delay: float = 1.0,
    rng: random.Random | None = None,
    retry_statuses=RETRYABLE_STATUSES,
    sleep=asyncio.sleep,
) -> ClientResponse:
    """Run ``attempt_fn()`` until success or the attempt budget runs out.

    ``attempt_fn`` is an async callable returning a
    :class:`ClientResponse`.  A response whose status is not in
    ``retry_statuses`` is returned immediately (success *and*
    non-retryable failures — a 400 will never succeed on retry).  A
    retryable response waits ``min(max_delay, base_delay * 2**attempt)``
    scaled by full jitter in ``[0.5, 1.5)``, floored at the server's
    ``Retry-After`` hint, then tries again.  The last response is
    returned when the budget is exhausted — callers always get the
    server's word, never a synthetic error.
    """
    if attempts < 1:
        raise ValueError(f"attempts must be >= 1, got {attempts}")
    rng = rng or random.Random()
    response = None
    for attempt in range(attempts):
        response = await attempt_fn()
        if response.status not in retry_statuses:
            return response
        if attempt == attempts - 1:
            break
        delay = min(max_delay, base_delay * (2 ** attempt))
        delay *= 0.5 + rng.random()  # full jitter: desynchronise retriers
        hint = response.retry_after
        if hint is not None:
            delay = max(delay, hint)
        await sleep(delay)
    return response


@dataclass
class ServingClient:
    """Tiny asyncio HTTP client for the serving endpoints.

    Connections are kept alive and reused: at most :data:`MAX_IDLE`
    idle ones, owned by the event loop that opened them (a client used
    under a new loop starts a fresh pool).  ``await client.close()`` —
    or ``async with ServingClient(...)`` — closes them.
    """

    host: str
    port: int
    attempts: int = 5
    base_delay: float = 0.02
    max_delay: float = 1.0
    rng: random.Random = field(default_factory=lambda: random.Random(0))
    _idle: list = field(default_factory=list, init=False, repr=False,
                        compare=False)
    _owner: tuple | None = field(default=None, init=False, repr=False,
                                 compare=False)

    # ------------------------------------------------------------------
    # connection pool
    # ------------------------------------------------------------------
    def _take(self, owner: tuple):
        """An idle connection to reuse for ``owner`` — the running loop
        and the address — or ``None``."""
        if owner != self._owner:  # new loop or new address: drop the pool
            for _, writer in self._idle:
                _close(writer)
            self._idle.clear()
            self._owner = owner
        while self._idle:
            reader, writer = self._idle.pop()
            if not writer.is_closing() and not reader.at_eof():
                return reader, writer
            _close(writer)
        return None

    def _put(self, connection, owner: tuple) -> None:
        if owner == self._owner and len(self._idle) < MAX_IDLE:
            self._idle.append(connection)
        else:
            _close(connection[1])

    async def close(self) -> None:
        """Close the idle connections."""
        idle, self._idle = self._idle, []
        for _, writer in idle:
            _close(writer)
            if self._owner[0] is asyncio.get_running_loop():
                try:
                    await writer.wait_closed()
                except OSError:
                    pass

    async def __aenter__(self) -> "ServingClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    async def get(self, path: str, params: dict | None = None) -> ClientResponse:
        """One GET request, on an idle connection when there is one.

        A reused connection the server has closed in the meantime
        fails before any response byte arrives; the request is then
        sent once more on a fresh connection (GETs are idempotent).
        """
        query = urllib.parse.urlencode(
            {k: v for k, v in (params or {}).items() if v is not None}
        )
        target = f"{path}?{query}" if query else path
        request = (
            f"GET {target} HTTP/1.1\r\nHost: {self.host}:{self.port}\r\n\r\n"
        ).encode("latin-1")
        owner = (asyncio.get_running_loop(), self.host, self.port)
        connection = self._take(owner)
        if connection is not None:
            try:
                return await self._exchange(connection, request, owner, True)
            except _StaleConnection:
                pass
        connection = await asyncio.open_connection(self.host, self.port)
        return await self._exchange(connection, request, owner, False)

    async def _exchange(self, connection, request: bytes, owner: tuple,
                        reused: bool) -> ClientResponse:
        """Send ``request`` and read one ``Content-Length``-framed
        response.  The connection goes back to the pool only after a
        complete response the server did not mark ``Connection: close``;
        a request that raises or is cancelled closes it."""
        reader, writer = connection
        keep = False
        try:
            try:
                writer.write(request)
                await writer.drain()
                first = await reader.read(1)
                if not first:
                    raise ConnectionResetError(
                        "connection closed before the response"
                    )
            except ConnectionError:
                if reused:
                    raise _StaleConnection() from None
                raise
            head = first + await reader.readuntil(b"\r\n\r\n")
            status_line, *header_lines = head[:-4].decode("latin-1").split("\r\n")
            status = int(status_line.split(" ", 2)[1])
            headers = {}
            for line in header_lines:
                if ":" in line:
                    key, value = line.split(":", 1)
                    headers[key.strip().lower()] = value.strip()
            if "content-length" in headers:
                body = await reader.readexactly(int(headers["content-length"]))
                keep = headers.get("connection", "").lower() != "close"
            else:
                body = await reader.read(-1)  # framed by the close
        except asyncio.IncompleteReadError as exc:
            raise ConnectionResetError(
                "connection closed mid-response"
            ) from exc
        finally:
            if keep:
                self._put(connection, owner)
            else:
                _close(writer)
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
        except json.JSONDecodeError:
            payload = {"raw": body.decode("utf-8", "replace")}
        return ClientResponse(
            status=status, headers=headers, body=_decode_ids(payload)
        )

    async def get_with_retry(
        self, path: str, params: dict | None = None
    ) -> ClientResponse:
        """GET with the jittered-backoff retry policy."""
        return await retry_with_backoff(
            lambda: self.get(path, params),
            attempts=self.attempts,
            base_delay=self.base_delay,
            max_delay=self.max_delay,
            rng=self.rng,
        )

    # ------------------------------------------------------------------
    # endpoint conveniences
    # ------------------------------------------------------------------
    async def query(
        self,
        column: str,
        low,
        high,
        *,
        mode: str | None = None,
        limit: int | None = None,
        timeout_ms: float | None = None,
        retry: bool = True,
    ) -> ClientResponse:
        params = {
            "column": column, "low": low, "high": high,
            "mode": mode, "limit": limit, "timeout_ms": timeout_ms,
            "format": "binary",
        }
        getter = self.get_with_retry if retry else self.get
        return await getter("/query", params)

    async def aggregate(
        self, column: str, low, high, op: str = "count", *,
        group_by: str | None = None, top_k: int | None = None,
        timeout_ms: float | None = None, retry: bool = True,
    ) -> ClientResponse:
        params = {
            "column": column, "low": low, "high": high, "op": op,
            "group_by": group_by, "top_k": top_k,
            "timeout_ms": timeout_ms,
        }
        getter = self.get_with_retry if retry else self.get
        return await getter("/aggregate", params)

    async def page(
        self, column: str, low, high, *,
        limit: int, cursor: str | None = None,
        timeout_ms: float | None = None, retry: bool = True,
    ) -> ClientResponse:
        params = {
            "column": column, "low": low, "high": high,
            "limit": limit, "cursor": cursor, "timeout_ms": timeout_ms,
            "format": "binary",
        }
        getter = self.get_with_retry if retry else self.get
        return await getter("/page", params)

    async def healthz(self) -> ClientResponse:
        return await self.get("/healthz")

    async def stats(self) -> ClientResponse:
        return await self.get("/stats")
