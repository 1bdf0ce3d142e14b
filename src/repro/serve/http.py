"""The asyncio HTTP front end: three routes, canonical-JSON bodies.

A deliberately small HTTP/1.1 server over ``asyncio.start_server`` —
stdlib only, no web framework — because the protocol surface is three
routes and the payloads are canonical JSON:

``POST /scenarios``
    Body: a :class:`~repro.serve.request.ScenarioRequest` JSON object
    (``{"spec": {...}, "params": {...}, "trials": N, ...}``).  Answers
    ``200`` with the full record when the digest is already committed
    (a cache hit — zero simulator rounds), or ``202`` with
    ``{"digest", "status": "pending"}`` when the work was enqueued or
    coalesced onto an in-flight computation.  ``503`` under back
    pressure (queue full), ``400`` for malformed bodies.

``GET /results/<digest>``
    ``200`` with the record, ``202`` while pending (queued here or
    leased by any service process on the store), ``500`` when the
    computation failed (the error text is in the body; resubmitting the
    POST retries), ``404`` for digests this store knows nothing about.

``GET /status``
    Queue depth, hit/miss/coalesced/computed counters, worker liveness.

Malformed framing is answered, never dropped: a negative or non-numeric
``Content-Length`` with ``400``, a body over :data:`MAX_BODY_BYTES`
with ``413``, and a line over the stream reader's limit or more than
:data:`MAX_HEADERS` header lines with ``431``, each with a JSON
``error`` body and ``Connection: close``.

Every response body is **canonical JSON** (sorted keys, compact
separators, trailing newline) rendered by one function per shape — in
particular :func:`record_body` serves both the POST cache hit and the
GET result, so the CI smoke's byte-diff of the two is exact by
construction.  Responses carry no timestamps (the wall-clock
quarantine, RPR002, covers this package): byte-identical records yield
byte-identical responses, forever.
"""

from __future__ import annotations

import asyncio
import json
import sys
import threading
from typing import Any

from repro.exceptions import ConfigurationError, ServiceBusy
from repro.obs import complete_span, get_registry
from repro.obs import monotonic as obs_monotonic
from repro.serve.request import ScenarioRequest
from repro.serve.service import ScenarioService
from repro.store import Record, canonical_json

__all__ = ["BackgroundServer", "record_body", "run_server"]

#: Request-body cap: a ScenarioSpec is a few KB; anything near this is
#: a client bug or abuse, answered ``413``.
MAX_BODY_BYTES = 8 * 1024 * 1024
#: Header lines per request, the cap ``http.client`` applies; more are
#: answered ``431``, as is any line longer than the stream reader's limit.
MAX_HEADERS = 100

_STATUS_TEXT = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


JSON_TYPE = "application/json"
PROMETHEUS_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _json_body(payload: dict[str, Any]) -> bytes:
    return (canonical_json(payload) + "\n").encode("utf-8")


def _route_label(path: str) -> str:
    """Bounded-cardinality route label for metrics (digests stripped)."""
    if path == "/scenarios":
        return "/scenarios"
    if path.startswith("/results/"):
        return "/results"
    if path in ("/status", "/metrics"):
        return path
    return "other"


def _request_counts() -> dict[str, int]:
    """Per-``route:status`` request totals from the metrics registry
    (the ``observability`` block of the enriched ``/status``)."""
    counts: dict[str, int] = {}
    snapshot = get_registry().snapshot()
    counters = snapshot.get("counters")
    if isinstance(counters, list):
        for row in counters:
            if not isinstance(row, dict) or row.get("name") != "repro_http_requests_total":
                continue
            labels = row.get("labels")
            value = row.get("value")
            if isinstance(labels, dict) and isinstance(value, (int, float)):
                counts[f"{labels.get('route')}:{labels.get('status')}"] = int(value)
    return counts


def _observe_request(route: str, status: int, dur: float) -> None:
    """One request's metrics + trace span (route label, never the path)."""
    registry = get_registry()
    registry.counter("repro_http_requests_total", route=route, status=str(status)).inc()
    registry.histogram("repro_http_request_seconds", route=route).observe(dur)
    complete_span("http_request", dur, route=route, status=status)


def record_body(record: Record) -> bytes:
    """The one canonical rendering of a committed record.

    Used verbatim by the POST cache-hit path and the GET result path so
    the two are byte-identical for the same digest.
    """
    return _json_body(
        {
            "digest": record.digest,
            "meta": record.meta,
            "arrays": {name: array.tolist() for name, array in sorted(record.arrays.items())},
        }
    )


class _HttpError(Exception):
    """Internal: unwound into a JSON error response."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


def _route(
    service: ScenarioService, method: str, path: str, body: bytes
) -> tuple[int, bytes, str]:
    """Dispatch one request; returns ``(status, body, content type)``."""
    if path == "/scenarios":
        if method != "POST":
            raise _HttpError(405, "POST /scenarios")
        try:
            data = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _HttpError(400, f"request body is not valid JSON: {exc}") from exc
        try:
            request = ScenarioRequest.from_dict(data)
            digest, disposition = service.submit(request)
        except ConfigurationError as exc:
            raise _HttpError(400, str(exc)) from exc
        except ServiceBusy as exc:
            raise _HttpError(503, str(exc)) from exc
        if disposition == "hit":
            record = service.store.read_record(digest)
            if record is not None:
                return 200, record_body(record), JSON_TYPE
            # The record vanished between digest check and read (gc
            # race): the resubmission path recomputes it.
            try:
                service.submit(request)
            except ServiceBusy as exc:
                raise _HttpError(503, str(exc)) from exc
        return 202, _json_body({"digest": digest, "status": "pending"}), JSON_TYPE

    if path.startswith("/results/"):
        if method != "GET":
            raise _HttpError(405, "GET /results/<digest>")
        digest = path[len("/results/") :]
        if not digest or not all(c in "0123456789abcdef" for c in digest):
            raise _HttpError(400, f"malformed digest {digest!r}")
        state = service.state_of(digest)
        if state == "committed":
            record = service.store.read_record(digest)
            if record is not None:
                return 200, record_body(record), JSON_TYPE
            state = "unknown"
        if state == "pending":
            return 202, _json_body({"digest": digest, "status": "pending"}), JSON_TYPE
        if state == "failed":
            error = service.failure_of(digest) or "computation failed"
            return (
                500,
                _json_body({"digest": digest, "status": "failed", "error": error}),
                JSON_TYPE,
            )
        return 404, _json_body({"digest": digest, "status": "unknown"}), JSON_TYPE

    if path == "/status":
        if method != "GET":
            raise _HttpError(405, "GET /status")
        payload = service.status().to_dict()
        # Additive enrichment: per-route request totals from the
        # metrics registry (full detail lives at /metrics).
        payload["requests"] = _request_counts()
        return 200, _json_body(payload), JSON_TYPE

    if path == "/metrics":
        if method != "GET":
            raise _HttpError(405, "GET /metrics")
        text = get_registry().render_prometheus()
        return 200, text.encode("utf-8"), PROMETHEUS_TYPE

    raise _HttpError(404, f"no route for {path!r}")


def _render(status: int, body: bytes, *, keep_alive: bool, content_type: str = JSON_TYPE) -> bytes:
    head = (
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        f"\r\n"
    )
    return head.encode("ascii") + body


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    try:
        return await reader.readline()
    except ValueError as exc:  # the line overran the reader's limit
        raise _HttpError(431, "request line or header line too long") from exc


async def _read_request(
    reader: asyncio.StreamReader,
) -> tuple[str, str, dict[str, str], bytes] | None:
    """Parse one request; ``None`` on clean EOF between requests."""
    request_line = await _read_line(reader)
    if not request_line:
        return None
    try:
        method, target, _version = request_line.decode("ascii").split(None, 2)
    except (UnicodeDecodeError, ValueError) as exc:
        raise _HttpError(400, "malformed request line") from exc
    headers: dict[str, str] = {}
    for _ in range(MAX_HEADERS + 1):
        line = await _read_line(reader)
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    else:
        raise _HttpError(431, f"more than {MAX_HEADERS} header lines")
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError as exc:
        raise _HttpError(400, f"bad Content-Length {length_text!r}") from exc
    if length < 0:
        raise _HttpError(400, f"bad Content-Length {length_text!r}")
    if length > MAX_BODY_BYTES:
        raise _HttpError(413, f"body of {length} bytes exceeds {MAX_BODY_BYTES}")
    body = await reader.readexactly(length) if length else b""
    # Query strings are not part of the protocol; tolerate and strip.
    path = target.split("?", 1)[0]
    return method.upper(), path, headers, body


async def _handle_connection(
    service: ScenarioService, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
) -> None:
    try:
        while True:
            try:
                parsed = await _read_request(reader)
            except asyncio.IncompleteReadError:
                break
            except _HttpError as exc:
                writer.write(
                    _render(exc.status, _json_body({"error": exc.message}), keep_alive=False)
                )
                await writer.drain()
                break
            if parsed is None:
                break
            method, path, headers, body = parsed
            keep_alive = headers.get("connection", "keep-alive").lower() != "close"
            route = _route_label(path)
            started = obs_monotonic()
            content_type = JSON_TYPE
            try:
                # The route handler does blocking store I/O (each hit
                # reads both record files); run it off the event loop so
                # one slow disk read never stalls other connections.
                status, payload, content_type = await asyncio.to_thread(
                    _route, service, method, path, body
                )
            except _HttpError as exc:
                status, payload = exc.status, _json_body({"error": exc.message})
            except Exception as exc:  # noqa: BLE001 — keep serving
                status, payload = 500, _json_body({"error": f"{type(exc).__name__}: {exc}"})
            _observe_request(route, status, obs_monotonic() - started)
            writer.write(
                _render(status, payload, keep_alive=keep_alive, content_type=content_type)
            )
            await writer.drain()
            if not keep_alive:
                break
    except (ConnectionResetError, BrokenPipeError):
        pass
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


async def _serve(
    service: ScenarioService,
    host: str,
    port: int,
    *,
    started: "threading.Event | None" = None,
    port_box: "list[int] | None" = None,
    stop: "asyncio.Event | None" = None,
) -> None:
    connections: set[asyncio.Task[Any]] = set()

    async def handler(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            connections.add(task)
            task.add_done_callback(connections.discard)
        try:
            await _handle_connection(service, reader, writer)
        except asyncio.CancelledError:
            # Only shutdown cancels connection tasks; ending normally
            # here keeps asyncio.streams' connection_made callback from
            # re-raising when it inspects the finished task.
            return

    service.start()
    server = await asyncio.start_server(handler, host=host, port=port)
    bound_port = int(server.sockets[0].getsockname()[1])
    if port_box is not None:
        port_box.append(bound_port)
    print(f"repro-serve listening on http://{host}:{bound_port}", file=sys.stderr, flush=True)
    if started is not None:
        started.set()
    try:
        if stop is None:
            await server.serve_forever()
        else:
            await stop.wait()
    finally:
        # Stop accepting, then cancel parked keep-alive handlers BEFORE
        # wait_closed(): on 3.12+ wait_closed blocks until every handler
        # returns, and an idle connection would park one forever.
        server.close()
        for task in list(connections):
            task.cancel()
        if connections:
            await asyncio.gather(*connections, return_exceptions=True)
        await server.wait_closed()
        service.stop()


def run_server(service: ScenarioService, *, host: str = "127.0.0.1", port: int = 8787) -> None:
    """Serve until interrupted (the CLI entry point's blocking loop)."""
    try:
        asyncio.run(_serve(service, host, port))
    except KeyboardInterrupt:
        pass


class BackgroundServer:
    """A served :class:`ScenarioService` on a background thread.

    Context manager for tests and benchmarks: binds (``port=0`` picks a
    free port), starts the service's workers, and on exit stops the
    event loop and the worker pool.

    >>> with BackgroundServer(service) as server:   # doctest: +SKIP
    ...     http.client.HTTPConnection("127.0.0.1", server.port)
    """

    def __init__(self, service: ScenarioService, *, host: str = "127.0.0.1", port: int = 0) -> None:
        self.service = service
        self.host = host
        self.port = int(port)
        self._started = threading.Event()
        self._port_box: list[int] = []
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        self._stop = asyncio.Event()
        try:
            loop.run_until_complete(
                _serve(
                    self.service,
                    self.host,
                    self.port,
                    started=self._started,
                    port_box=self._port_box,
                    stop=self._stop,
                )
            )
        finally:
            loop.close()

    def __enter__(self) -> "BackgroundServer":
        self._thread = threading.Thread(target=self._run, name="serve-http", daemon=True)
        self._thread.start()
        if not self._started.wait(timeout=30.0):
            raise RuntimeError("background server failed to start within 30s")
        self.port = self._port_box[0]
        return self

    def __exit__(self, *exc: object) -> None:
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None:
            loop.call_soon_threadsafe(stop.set)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
