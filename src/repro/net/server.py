"""``BlowfishHTTPServer``: a long-lived HTTP/1.1 JSON front end.

Stdlib-only (asyncio + ``json``): the serving boundary a real deployment
points clients and a Prometheus scraper at, layered over
:class:`~repro.api.async_service.AsyncBlowfishService` so in-flight
coalescing applies to wire traffic exactly as it does in-process.

Routes
------
``POST /v1/handle``
    One :class:`~repro.api.BlowfishService` request dict as the JSON body —
    verbatim, every op (``answer``/``plan``/``explain``/``describe``/
    ``append``/``tick``/``check``) works over the wire.  The response body
    is the service response dict.  Client errors never leak as 200s:

    ========================  ======================================================
    status                    meaning
    ========================  ======================================================
    200                       ``ok: true``
    400                       malformed JSON body (``error.kind == "bad_request"``)
                              or a service-side ``invalid_request``
    409                       ``error.kind == "budget_exhausted"``
    413                       body exceeds ``max_body`` (read refused)
    422                       an :class:`~repro.core.graphs.EdgeScanRefused`-style
                              refusal — ``error.code`` carries the diagnostic code
                              (POL2xx) the static checker predicts
    429                       ``max_inflight`` saturated; ``Retry-After`` is set and
                              nothing was queued (backpressure, not buffering)
    500                       internal error; the body is a structured
                              ``{"error": {"kind": "internal"}}`` — never a traceback
    503                       draining (graceful shutdown in progress)
    ========================  ======================================================

``GET /healthz``
    ``200 {"status": "ok"}`` while serving, ``503 {"status": "draining"}``
    once shutdown began — load balancers stop routing before the listener
    actually disappears.

``GET /metrics``
    Prometheus text exposition straight from
    :func:`repro.obs.render_prometheus` over the service's
    ``metrics_snapshot()`` (or a custom ``metrics_source`` — the multi-worker
    tier passes a merged-across-processes one).

Connection handling
-------------------
Connections are keep-alive by default (HTTP/1.1 semantics honoured,
``Connection: close`` respected).  Every read — request head *and* body —
runs under ``read_timeout``, so a slow-loris client holds a connection for
at most one timeout; writes run under ``write_timeout``.  Admission is a
counted ``max_inflight`` gate checked *before* the request is submitted to
the service tier: an overloaded server answers 429 with ``Retry-After``
instead of queueing unboundedly.

Graceful drain (:meth:`BlowfishHTTPServer.close`, or SIGTERM/SIGINT via
:meth:`install_signal_handlers`): stop accepting, close idle keep-alive
connections, let in-flight requests finish up to ``drain_deadline`` seconds,
then abort stragglers with a best-effort 503; finally the async tier is
drained (:meth:`~repro.api.AsyncBlowfishService.drain`) so every accepted
request's budget truth has settled before the process exits.

Every request id (client ``X-Request-Id`` header, else the body's own
``request_id``, else server-generated) is injected into the service request
— so it lands on the root ``service.handle`` span and in ``meta.request_id``
— and echoed as a response header.  Coalesced duplicates share the executed
response object; this layer rewrites ``meta.request_id`` copy-on-write so
each connection still sees its own id.
"""

from __future__ import annotations

import asyncio
import json
import logging
import re
import signal
import uuid
from contextlib import suppress
from time import perf_counter

from .. import obs
from ..api import AsyncBlowfishService, BlowfishService, ServiceDraining

__all__ = ["BlowfishHTTPServer", "status_for_response", "run_server"]

#: Internal errors (500s) are logged here with their traceback and request id.
_log = logging.getLogger("repro.net")

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    411: "Length Required",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Content type of the Prometheus text exposition format.
_METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_JSON_CONTENT_TYPE = "application/json"

#: Canned last-resort response for connections aborted past the drain
#: deadline (written best-effort before the transport is torn down).
_ABORT_BODY = b'{"ok": false, "error": {"kind": "draining", "field": null}}'
_ABORT_503 = (
    b"HTTP/1.1 503 Service Unavailable\r\n"
    b"content-type: application/json\r\n"
    b"content-length: " + str(len(_ABORT_BODY)).encode() + b"\r\n"
    b"connection: close\r\n\r\n" + _ABORT_BODY
)


def status_for_response(response) -> int:
    """The HTTP status a service response dict maps to.

    ``ok`` responses are 200.  Error kinds map per the module table:
    ``budget_exhausted`` → 409 (the request was well-formed; the session's
    budget state refuses it), refusals carrying a diagnostic ``code``
    (:class:`~repro.core.graphs.EdgeScanRefused` enriched payloads) → 422,
    anything else the service classified as a client mistake → 400.
    """
    if not isinstance(response, dict):
        return 500
    if response.get("ok", False):
        return 200
    error = response.get("error")
    if not isinstance(error, dict):
        return 500
    kind = error.get("kind")
    if kind == "budget_exhausted":
        return 409
    if kind == "internal":
        return 500
    if error.get("code"):
        return 422
    return 400


class _Connection:
    """Book-keeping for one live client connection (drain coordination)."""

    __slots__ = ("task", "writer", "busy")

    def __init__(self, task: asyncio.Task, writer: asyncio.StreamWriter):
        self.task = task
        self.writer = writer
        self.busy = False  #: mid-request (drain must let it finish)


class BlowfishHTTPServer:
    """Serve a :class:`~repro.api.BlowfishService` over HTTP/1.1.

    Parameters
    ----------
    service:
        The service to front (a fresh one by default).  Ignored when
        ``tier`` is passed.
    tier:
        An existing :class:`AsyncBlowfishService` to serve through; the
        server then does not own it and ``close()`` drains but does not
        release its worker pool.
    host / port:
        Bind address.  ``port=0`` picks a free port; read it back from
        :attr:`address` after :meth:`start`.  Ignored when ``sock`` is
        given.
    sock:
        A pre-bound listening socket to serve on instead of binding —
        the multi-worker tier passes each worker the shared socket.
    max_inflight:
        Admission bound on concurrently executing ``/v1/handle`` requests.
        The gate is counted, not queued: request ``max_inflight + 1``
        answers 429 immediately.
    max_body:
        Largest accepted request body in bytes (413 above it, body unread).
    max_header:
        Largest accepted request head in bytes (431 above it).
    read_timeout / write_timeout:
        Per-read and per-write deadlines, seconds.  The read timeout also
        bounds how long an idle keep-alive connection is held open.
    drain_deadline:
        Seconds :meth:`close` waits for in-flight requests before aborting
        the stragglers with a 503.
    retry_after:
        The ``Retry-After`` value (seconds, integer-rendered) on 429s.
    configure_metrics:
        Turn the process-wide metrics registry on at :meth:`start` if it is
        still the no-op one (default True: a serving process that exposes
        ``/metrics`` wants something behind it).
    metrics_source:
        Zero-arg callable returning the snapshot dict ``/metrics`` renders;
        defaults to the fronted service's ``metrics_snapshot()``.
    tier_workers:
        Thread-pool width of the owned :class:`AsyncBlowfishService`.
    """

    def __init__(
        self,
        service: BlowfishService | None = None,
        *,
        tier: AsyncBlowfishService | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        sock=None,
        max_inflight: int = 64,
        max_body: int = 1 << 20,
        max_header: int = 1 << 15,
        read_timeout: float = 10.0,
        write_timeout: float = 10.0,
        drain_deadline: float = 5.0,
        retry_after: float = 1.0,
        configure_metrics: bool = True,
        metrics_source=None,
        tier_workers: int = 4,
    ):
        if max_inflight <= 0:
            raise ValueError("max_inflight must be positive")
        if max_body <= 0:
            raise ValueError("max_body must be positive")
        if tier is not None:
            self._tier = tier
            self._owns_tier = False
        else:
            self._tier = AsyncBlowfishService(service, max_workers=tier_workers)
            self._owns_tier = True
        self.host = host
        self.port = port
        self._sock = sock
        self.max_inflight = int(max_inflight)
        self.max_body = int(max_body)
        self.max_header = int(max_header)
        self.read_timeout = float(read_timeout)
        self.write_timeout = float(write_timeout)
        self.drain_deadline = float(drain_deadline)
        self.retry_after = float(retry_after)
        self.configure_metrics = bool(configure_metrics)
        self._metrics_source = (
            metrics_source
            if metrics_source is not None
            else self._tier.service.metrics_snapshot
        )
        self._server: asyncio.base_events.Server | None = None
        self._connections: set[_Connection] = set()
        self._inflight = 0
        self._draining = False
        self._closed = asyncio.Event()
        self._close_task: asyncio.Task | None = None

    # -- lifecycle -------------------------------------------------------------------
    @property
    def service(self) -> BlowfishService:
        return self._tier.service

    @property
    def tier(self) -> AsyncBlowfishService:
        return self._tier

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (meaningful after :meth:`start`)."""
        return (self.host, self.port)

    @property
    def draining(self) -> bool:
        return self._draining

    async def start(self) -> tuple[str, int]:
        """Bind (or adopt ``sock``) and begin accepting; returns the address."""
        if self._server is not None:
            raise RuntimeError("server already started")
        if self.configure_metrics and obs.metrics() is obs.NULL_REGISTRY:
            obs.configure(metrics=True)
        if self._sock is not None:
            self._server = await asyncio.start_server(
                self._client_connected, sock=self._sock, limit=self.max_header
            )
        else:
            self._server = await asyncio.start_server(
                self._client_connected,
                host=self.host,
                port=self.port,
                limit=self.max_header,
            )
        bound = self._server.sockets[0].getsockname()
        self.host, self.port = bound[0], bound[1]
        return (self.host, self.port)

    def install_signal_handlers(self, loop=None) -> None:
        """SIGTERM/SIGINT trigger one graceful :meth:`close` (idempotent)."""
        loop = loop if loop is not None else asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, self.request_shutdown)

    def request_shutdown(self) -> None:
        """Begin a graceful drain from sync context (signal handlers)."""
        if self._close_task is None or self._close_task.done():
            self._close_task = asyncio.get_running_loop().create_task(self.close())

    async def serve_forever(self) -> None:
        """Block until a graceful :meth:`close` completes."""
        await self._closed.wait()

    async def close(self, *, deadline: float | None = None) -> None:
        """Graceful drain: stop accepting, finish in-flight, then abort.

        1. Flip :attr:`draining` — new ``/v1/handle`` requests answer 503,
           ``/healthz`` reports draining.
        2. Close the listener (no new connections).
        3. Close idle keep-alive connections; busy ones finish their current
           request (their response carries ``Connection: close``).
        4. Wait up to ``deadline`` (default ``drain_deadline``) for busy
           connections, then abort stragglers with a best-effort 503.
        5. Drain the async tier so every accepted request settled; release
           its pool if this server owns it.
        """
        if self._draining:
            await self._closed.wait()
            return
        self._draining = True
        with obs.tracer().span("http.drain") as span:
            if self._server is not None:
                self._server.close()
                await self._server.wait_closed()
            for conn in list(self._connections):
                if not conn.busy:
                    self._abort_connection(conn)
            deadline = self.drain_deadline if deadline is None else float(deadline)
            tasks = [c.task for c in list(self._connections)]
            aborted = 0
            if tasks:
                _done, pending = await asyncio.wait(tasks, timeout=deadline)
                if pending:
                    for conn in list(self._connections):
                        self._abort_connection(conn, force=True)
                        aborted += 1
                    await asyncio.gather(*pending, return_exceptions=True)
            span.set(aborted=aborted)
            if self._owns_tier:
                await self._tier.aclose()
            else:
                await self._tier.drain()
        obs.metrics().gauge("http_inflight").set(0)
        self._closed.set()

    def _abort_connection(self, conn: _Connection, *, force: bool = False) -> None:
        """Tear one connection down; ``force`` writes a canned 503 first."""
        if force and conn.busy:
            with suppress(Exception):
                conn.writer.write(_ABORT_503)
        with suppress(Exception):
            transport = conn.writer.transport
            if transport is not None:
                transport.abort()
        conn.task.cancel()

    # -- connection handling ---------------------------------------------------------
    async def _client_connected(self, reader, writer) -> None:
        conn = _Connection(asyncio.current_task(), writer)
        self._connections.add(conn)
        obs.metrics().counter("http_connections_total").inc()
        try:
            with obs.tracer().span("http.connection"):
                await self._serve_connection(reader, writer, conn)
        except asyncio.CancelledError:
            # drain-abort path; the 503 (if any) was already written
            pass
        except (ConnectionError, OSError):
            pass  # client went away mid-anything: nothing to answer
        finally:
            self._connections.discard(conn)
            with suppress(Exception):
                writer.close()

    async def _serve_connection(self, reader, writer, conn: _Connection) -> None:
        while True:
            try:
                head = await asyncio.wait_for(
                    reader.readuntil(b"\r\n\r\n"), self.read_timeout
                )
            except asyncio.TimeoutError:
                # slow-loris (partial head) or idle keep-alive: just close —
                # there is no well-formed request to answer
                obs.metrics().counter("http_read_timeouts_total").inc()
                return
            except (
                asyncio.IncompleteReadError,
                ConnectionResetError,
                BrokenPipeError,
            ):
                return  # client closed between requests
            except asyncio.LimitOverrunError:
                await self._respond(
                    writer,
                    431,
                    _error_body("bad_request", "request head too large"),
                    route="other",
                    keep_alive=False,
                )
                return
            conn.busy = True
            try:
                keep_alive = await self._one_request(head, reader, writer)
            finally:
                conn.busy = False
            if not keep_alive or self._draining:
                return

    async def _one_request(self, head: bytes, reader, writer) -> bool:
        """Parse and answer one request; returns whether to keep the
        connection (False on protocol errors and ``Connection: close``)."""
        try:
            method, path, headers, http11 = _parse_head(head)
        except ValueError as exc:
            await self._respond(
                writer,
                400,
                _error_body("bad_request", str(exc)),
                route="other",
                keep_alive=False,
            )
            return False
        keep_alive = _wants_keep_alive(headers, http11) and not self._draining

        if path == "/healthz":
            if method != "GET":
                return await self._respond(
                    writer, 405, _error_body("bad_request", "use GET"),
                    route="healthz", keep_alive=False,
                )
            if self._draining:
                body = json.dumps({"status": "draining"}).encode()
                return await self._respond(
                    writer, 503, body, route="healthz", keep_alive=False
                )
            body = json.dumps({"status": "ok"}).encode()
            return await self._respond(
                writer, 200, body, route="healthz", keep_alive=keep_alive
            )

        if path == "/metrics":
            if method != "GET":
                return await self._respond(
                    writer, 405, _error_body("bad_request", "use GET"),
                    route="metrics", keep_alive=False,
                )
            try:
                text = obs.render_prometheus(self._metrics_source())
            except Exception:
                return await self._respond(
                    writer, 500, _error_body("internal", "metrics unavailable"),
                    route="metrics", keep_alive=False,
                )
            return await self._respond(
                writer,
                200,
                text.encode(),
                route="metrics",
                keep_alive=keep_alive,
                content_type=_METRICS_CONTENT_TYPE,
            )

        if path == "/v1/handle":
            if method != "POST":
                return await self._respond(
                    writer, 405, _error_body("bad_request", "use POST"),
                    route="handle", keep_alive=False,
                )
            return await self._handle_request(headers, reader, writer, keep_alive)

        return await self._respond(
            writer,
            404,
            _error_body("bad_request", f"no route {path!r}"),
            route="other",
            keep_alive=keep_alive,
        )

    async def _handle_request(self, headers, reader, writer, keep_alive: bool) -> bool:
        """``POST /v1/handle``: body limits, admission, dispatch, mapping."""
        if "transfer-encoding" in headers:
            # chunked bodies are not supported; accepting the header while
            # framing by Content-Length would desync the connection (request
            # smuggling behind a TE-parsing proxy), so refuse and close
            return await self._respond(
                writer,
                400,
                _error_body("bad_request", "Transfer-Encoding not supported"),
                route="handle",
                keep_alive=False,
            )
        raw_length = headers.get("content-length")
        if raw_length is None:
            return await self._respond(
                writer, 411, _error_body("bad_request", "Content-Length required"),
                route="handle", keep_alive=False,
            )
        try:
            length = int(raw_length)
            if length < 0:
                raise ValueError
        except ValueError:
            return await self._respond(
                writer, 400, _error_body("bad_request", "bad Content-Length"),
                route="handle", keep_alive=False,
            )
        if length > self.max_body:
            # refuse before reading: the connection cannot be reused (the
            # unread body would alias the next request head), so close it
            return await self._respond(
                writer,
                413,
                _error_body(
                    "bad_request", f"body of {length} bytes exceeds {self.max_body}"
                ),
                route="handle",
                keep_alive=False,
            )
        try:
            body = await asyncio.wait_for(reader.readexactly(length), self.read_timeout)
        except asyncio.TimeoutError:
            obs.metrics().counter("http_read_timeouts_total").inc()
            await self._respond(
                writer, 408, _error_body("bad_request", "body read timed out"),
                route="handle", keep_alive=False,
            )
            return False
        except (asyncio.IncompleteReadError, ConnectionResetError, BrokenPipeError):
            return False

        try:
            request = json.loads(body)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            return await self._respond(
                writer,
                400,
                _error_body("bad_request", f"malformed JSON body: {exc}"),
                route="handle",
                keep_alive=keep_alive,
            )
        if not isinstance(request, dict):
            return await self._respond(
                writer,
                400,
                _error_body(
                    "bad_request",
                    f"request body must be a JSON object, got {type(request).__name__}",
                ),
                route="handle",
                keep_alive=keep_alive,
            )

        request_id = _request_id(headers, request)
        request["request_id"] = request_id

        if self._draining:
            return await self._respond(
                writer,
                503,
                _error_body("draining", "server is draining"),
                route="handle",
                keep_alive=False,
                request_id=request_id,
            )
        if self._inflight >= self.max_inflight:
            # backpressure, not buffering: nothing was queued
            obs.metrics().counter("http_rejected_total", reason="overload").inc()
            return await self._respond(
                writer,
                429,
                _error_body(
                    "overloaded",
                    f"{self.max_inflight} requests in flight; retry after "
                    f"{self.retry_after:g}s",
                ),
                route="handle",
                keep_alive=keep_alive,
                request_id=request_id,
                extra_headers=((b"retry-after", _format_retry_after(self.retry_after)),),
            )

        reg = obs.metrics()
        self._inflight += 1
        reg.gauge("http_inflight").set(self._inflight)
        try:
            with obs.tracer().span(
                "http.request", route="handle", request_id=request_id
            ) as span:
                try:
                    response = await self._tier.handle(request)
                    status = status_for_response(response)
                except ServiceDraining:
                    response = json.loads(_error_body("draining", "server is draining"))
                    status = 503
                except Exception:
                    # an internal bug: classified, counted and logged with
                    # its traceback, never leaked to the client
                    obs.metrics().counter("http_internal_errors_total").inc()
                    _log.exception("internal error serving request %s", request_id)
                    response = json.loads(
                        _error_body("internal", "internal server error")
                    )
                    status = 500
                span.set(status=status)
        finally:
            self._inflight -= 1
            reg.gauge("http_inflight").set(self._inflight)

        response = _with_request_id(response, request_id)
        payload = json.dumps(response).encode()
        return await self._respond(
            writer,
            status,
            payload,
            route="handle",
            keep_alive=keep_alive,
            request_id=request_id,
        )

    async def _respond(
        self,
        writer,
        status: int,
        body: bytes,
        *,
        route: str,
        keep_alive: bool,
        content_type: str = _JSON_CONTENT_TYPE,
        request_id: str | None = None,
        extra_headers: tuple = (),
    ) -> bool:
        """Write one response under the write timeout; records the request
        metrics and returns whether the connection survives."""
        start = perf_counter()
        lines = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}".encode(),
            b"content-type: " + content_type.encode(),
            b"content-length: " + str(len(body)).encode(),
            b"connection: " + (b"keep-alive" if keep_alive else b"close"),
        ]
        if request_id is not None:
            lines.append(b"x-request-id: " + request_id.encode())
        for name, value in extra_headers:
            lines.append(name + b": " + value)
        lines.append(b"")
        lines.append(body)
        data = b"\r\n".join(lines)
        reg = obs.metrics()
        reg.counter("http_requests_total", route=route, status=str(status)).inc()
        try:
            writer.write(data)
            await asyncio.wait_for(writer.drain(), self.write_timeout)
        except (
            asyncio.TimeoutError,
            ConnectionResetError,
            BrokenPipeError,
            OSError,
        ):
            obs.metrics().counter("http_write_failures_total").inc()
            with suppress(Exception):
                writer.transport.abort()
            return False
        finally:
            reg.histogram("http_request_seconds", route=route).observe(
                perf_counter() - start
            )
        return keep_alive

    def __repr__(self) -> str:
        state = "draining" if self._draining else "serving"
        return (
            f"BlowfishHTTPServer({self.host}:{self.port}, {state}, "
            f"inflight={self._inflight}/{self.max_inflight})"
        )


# -- head parsing ---------------------------------------------------------------------


def _parse_head(head: bytes) -> tuple[str, str, dict, bool]:
    """``(method, path, headers, is_http11)`` from a raw request head."""
    try:
        text = head.decode("latin-1")
    except UnicodeDecodeError as exc:  # latin-1 never fails, but be explicit
        raise ValueError(f"undecodable request head: {exc}") from None
    lines = text.split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3:
        raise ValueError(f"malformed request line {lines[0]!r}")
    method, target, version = parts
    if not version.startswith("HTTP/1."):
        raise ValueError(f"unsupported protocol {version!r}")
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep or not name.strip():
            raise ValueError(f"malformed header line {line!r}")
        key = name.strip().lower()
        if key == "content-length" and key in headers:
            # duplicate Content-Length is a classic smuggling vector (a
            # last-wins dict would silently pick one framing); refuse it
            raise ValueError("duplicate Content-Length header")
        headers[key] = value.strip()
    # strip any query string: routing is by path only
    path = target.split("?", 1)[0]
    return method, path, headers, version == "HTTP/1.1"


def _wants_keep_alive(headers: dict, http11: bool) -> bool:
    # Connection is a comma-separated token list; compare whole tokens, not
    # substrings ("close-notify" must not read as "close")
    tokens = {
        token.strip().lower()
        for token in headers.get("connection", "").split(",")
    }
    if http11:
        return "close" not in tokens
    return "keep-alive" in tokens


#: Anything outside printable ASCII is stripped from client-supplied
#: request ids: the id is echoed verbatim in the ``x-request-id`` response
#: header, so CR/LF (header injection / response splitting) and
#: unencodable code points (lone surrogates are valid JSON) must never
#: survive to ``encode()`` time.
_RID_UNSAFE = re.compile(r"[^\x20-\x7e]")


def _sanitize_request_id(rid: str) -> str | None:
    rid = _RID_UNSAFE.sub("", rid)[:128].strip()
    return rid or None


def _request_id(headers: dict, request: dict) -> str:
    """Header wins, then the body's own id, then a server-generated one.

    Client-supplied ids are sanitized to printable ASCII (≤128 chars);
    an id that is empty after sanitization falls through to the next
    source rather than producing an empty header.
    """
    rid = headers.get("x-request-id")
    if rid:
        clean = _sanitize_request_id(rid)
        if clean:
            return clean
    body_rid = request.get("request_id")
    if body_rid is not None:
        clean = _sanitize_request_id(str(body_rid))
        if clean:
            return clean
    return uuid.uuid4().hex


def _with_request_id(response, request_id: str):
    """Response with ``meta.request_id == request_id``, copy-on-write.

    Coalesced duplicates share one response object across waiters; it must
    never be mutated, so a response carrying another request's id is
    shallow-copied here rather than patched in place.
    """
    if not isinstance(response, dict):
        return response
    meta = response.get("meta")
    if isinstance(meta, dict) and meta.get("request_id") == request_id:
        return response
    return {**response, "meta": {**(meta if isinstance(meta, dict) else {}),
                                 "request_id": request_id}}


def _error_body(kind: str, message: str) -> bytes:
    return json.dumps(
        {"ok": False, "error": {"kind": kind, "message": message, "field": None}}
    ).encode()


def _format_retry_after(seconds: float) -> bytes:
    return str(max(1, int(round(seconds)))).encode()


def run_server(
    service: BlowfishService,
    *,
    install_signals: bool = True,
    ready=None,
    **server_options,
) -> None:
    """Run one server on a fresh event loop until it drains (blocking).

    ``ready(host, port)`` is called once the listener is bound — the CLI
    prints the address, tests hand it to a client.  SIGTERM/SIGINT trigger
    the graceful drain when ``install_signals`` is set.
    """

    async def main():
        server = BlowfishHTTPServer(service, **server_options)
        if install_signals:
            server.install_signal_handlers()
        host, port = await server.start()
        if ready is not None:
            ready(host, port)
        await server.serve_forever()

    asyncio.run(main())
