"""Asyncio HTTP/1.1 transport for :class:`repro.serve.app.ServeApp`.

A deliberately small standard-library server: the event loop parses
requests and enforces *admission control*; application handlers run on a
bounded thread pool so a slow fit never stalls the accept loop.

Endpoints
---------
==========================  ====================================================
``POST /v1/tenants``        create a tenant ``{tenant, total_epsilon}``
``POST /v1/ingest``         stream rows ``{tenant, task, dims, x, y[, durable]}``
``POST /v1/fit``            budgeted fit ``{tenant, task, dims, epsilons, seed}``
``GET  /v1/tenants/<name>`` tenant status (budget, accumulators)
``POST /v1/snapshot``       force a durable snapshot of every tenant
``POST /v1/shutdown``       graceful drain + shutdown (also SIGTERM/SIGINT)
``GET  /healthz``           liveness (never queued, never shed)
``GET  /readyz``            readiness + admission gauges (503 while draining)
==========================  ====================================================

Wire rules
----------
Request bodies are UTF-8 JSON objects, decoded with ``orjson`` (it
yields the same float64 bits as the standard library for every finite
number).  Its rules are stricter than stdlib ``json``, and a body that
breaks one is a 400 ``bad_request`` that changes no state:

* JSON numbers must be finite: ``NaN``, ``Infinity``, ``-Infinity`` and
  literals that overflow a double (``1e400``) are rejected;
* strings must be valid Unicode: a lone surrogate escape (``"\\ud800"``)
  or invalid UTF-8 is rejected, and so is a leading byte-order mark;
* seeds are at most 64-bit: an integer outside ``[-2**63, 2**64)``
  decodes as a float, so ``seed`` rejects it as not an integer.

Responses are encoded with stdlib ``json.dumps``.

Backpressure
------------
At most ``max_inflight`` requests execute concurrently; at most
``max_queue`` more may wait for a slot.  A request beyond that is shed
*immediately* with a retryable 503 (``overloaded``) and a ``Retry-After``
hint — the bounded-queue alternative to unbounded buffering, asserted by
tests.  Health probes bypass admission entirely (an overloaded service
must still report itself alive).  Queue wait counts against the request's
deadline (``X-Deadline-Ms`` header or ``deadline_ms`` body field), which
the app checks only before the budget spend; nothing propagates it into
an executor's ``tile_timeout``.

Shutdown drains: stop accepting, wait briefly for in-flight requests,
snapshot every tenant, close the session (which closes every tenant's
journal handle).  A ``kill -9`` instead of a drain is survivable by
design — that path is exercised by the chaos tests, not special-cased
here.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import orjson

from .app import ServeApp
from .protocol import (
    BadRequestError,
    Deadline,
    InternalServeError,
    NotReadyError,
    OverloadedError,
    ServeError,
)

__all__ = ["ServeHTTP"]

#: Seconds granted to in-flight requests during a graceful drain.
_DRAIN_SECONDS = 10.0

#: ``Retry-After`` hint (seconds) attached to retryable rejections.
_RETRY_AFTER = 1

#: Largest accepted request body (a full ingest batch of wide rows).
_MAX_BODY_BYTES = 64 * 1024 * 1024


class _NotFound(ServeError):
    status = 404
    code = "not_found"
    retryable = False


class ServeHTTP:
    """Bounded-admission HTTP server around a :class:`ServeApp`."""

    def __init__(
        self,
        app: ServeApp,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_inflight: int = 8,
        max_queue: int = 32,
        snapshot_interval: float = 5.0,
        port_file: str | Path | None = None,
    ) -> None:
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        if max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {max_queue}")
        self.app = app
        self.host = host
        self.port = port
        self.max_inflight = max_inflight
        self.max_queue = max_queue
        self.snapshot_interval = float(snapshot_interval)
        self.port_file = Path(port_file) if port_file is not None else None
        self.bound_port: int | None = None
        self._inflight = 0
        self._waiting = 0
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._handlers: ThreadPoolExecutor | None = None
        self._sem: asyncio.Semaphore | None = None

    # ------------------------------------------------------------------
    # Gauges
    # ------------------------------------------------------------------
    def _publish_gauges(self) -> None:
        recorder = self.app.session.recorder
        if recorder.recording:
            recorder.gauge("serve.inflight", self._inflight)
            recorder.gauge("serve.queue_waiting", self._waiting)

    def _admission_extra(self) -> dict:
        return {
            "inflight": self._inflight,
            "queue_waiting": self._waiting,
            "max_inflight": self.max_inflight,
            "max_queue": self.max_queue,
        }

    # ------------------------------------------------------------------
    # Request plumbing
    # ------------------------------------------------------------------
    @staticmethod
    async def _read_request(reader: asyncio.StreamReader):
        """Parse one HTTP/1.1 request; ``None`` on clean EOF."""
        line = await reader.readline()
        if not line:
            return None
        parts = line.decode("latin-1").split()
        if len(parts) < 2:
            raise BadRequestError("malformed request line")
        method, target = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            key, _, value = raw.decode("latin-1").partition(":")
            headers[key.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise BadRequestError("malformed Content-Length") from None
        if length < 0 or length > _MAX_BODY_BYTES:
            raise BadRequestError(f"request body too large ({length} bytes)")
        body = await reader.readexactly(length) if length else b""
        return method, target, headers, body

    @staticmethod
    def _respond(
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict,
        *,
        keep_alive: bool,
        retry_after: int | None = None,
    ) -> None:
        body = json.dumps(payload).encode()
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                  409: "Conflict", 500: "Internal Server Error",
                  503: "Service Unavailable", 504: "Gateway Timeout"}.get(
                      status, "Status")
        head = [
            f"HTTP/1.1 {status} {reason}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        if retry_after is not None:
            head.append(f"Retry-After: {retry_after}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + body)

    def _parse_body(self, raw: bytes) -> dict:
        if not raw:
            return {}
        try:
            body = orjson.loads(raw)
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise BadRequestError("request body is not valid JSON") from None
        if not isinstance(body, dict):
            raise BadRequestError("request body must be a JSON object")
        return body

    def _deadline_for(
        self, headers: dict, body: dict, received_at: float
    ) -> Deadline | None:
        """Deadline anchored at *receipt*, so queue wait counts against it."""
        raw = headers.get("x-deadline-ms", body.get("deadline_ms"))
        if raw is None:
            return None
        try:
            ms = float(raw)
        except (TypeError, ValueError):
            raise BadRequestError("deadline_ms must be a number") from None
        if ms <= 0:
            raise BadRequestError("deadline_ms must be positive")
        return Deadline.after_ms(ms, now=received_at)

    def _handle_sync(
        self, method: str, path: str, headers: dict, raw: bytes, received_at: float
    ) -> tuple[int, dict]:
        """Route + execute one request on a handler thread."""
        try:
            with self.app.session.recorder.span("serve.decode"):
                body = self._parse_body(raw)
            if method == "POST" and path == "/v1/tenants":
                return 200, self.app.create_tenant(body)
            if method == "POST" and path == "/v1/ingest":
                return 200, self.app.ingest(body)
            if method == "POST" and path == "/v1/fit":
                deadline = self._deadline_for(headers, body, received_at)
                return 200, self.app.fit(body, deadline)
            if method == "GET" and path.startswith("/v1/tenants/"):
                return 200, self.app.status(path[len("/v1/tenants/"):])
            if method == "POST" and path == "/v1/snapshot":
                return 200, self.app.snapshot()
            raise _NotFound(f"no route for {method} {path}")
        except ServeError as err:
            return err.status, err.to_wire()
        except Exception as exc:
            self.app.session.recorder.counter("serve.internal_errors")
            err = InternalServeError(f"{type(exc).__name__}: {exc}")
            return err.status, err.to_wire()

    async def _dispatch(
        self, method: str, path: str, headers: dict, raw: bytes, received_at: float
    ) -> tuple[int, dict, int | None]:
        """Admission control + handler offload; returns (status, body, retry)."""
        # Probes and shutdown bypass admission: an overloaded service must
        # still answer its orchestrator.
        if method == "GET" and path == "/healthz":
            return 200, self.app.healthz(), None
        if method == "GET" and path == "/readyz":
            try:
                return 200, self.app.readyz(self._admission_extra()), None
            except NotReadyError as err:
                return err.status, err.to_wire(), _RETRY_AFTER
        if method == "POST" and path == "/v1/shutdown":
            self._stop_event.set()
            return 200, {"status": "draining"}, None
        if self._inflight >= self.max_inflight and self._waiting >= self.max_queue:
            recorder = self.app.session.recorder
            recorder.counter("serve.shed_requests")
            err = OverloadedError(
                "admission queue full; retry with backoff",
                **self._admission_extra(),
            )
            return err.status, err.to_wire(), _RETRY_AFTER
        self._waiting += 1
        self._publish_gauges()
        try:
            await self._sem.acquire()
        except BaseException:
            # A cancelled wait (``CancelledError`` is a ``BaseException``)
            # never got a slot; left counted as queued, it would make
            # admission shed on a phantom queue.
            self._waiting -= 1
            self._publish_gauges()
            raise
        self._waiting -= 1
        self._inflight += 1
        self._publish_gauges()
        try:
            loop = asyncio.get_running_loop()
            status, payload = await loop.run_in_executor(
                self._handlers,
                self._handle_sync,
                method, path, headers, raw, received_at,
            )
        finally:
            self._inflight -= 1
            self._sem.release()
            self._publish_gauges()
        retry = _RETRY_AFTER if payload.get("error", {}).get("retryable") else None
        return status, payload, retry

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except (asyncio.IncompleteReadError, ConnectionError):
                    break
                except BadRequestError as err:
                    self._respond(writer, err.status, err.to_wire(), keep_alive=False)
                    break
                if request is None:
                    break
                received_at = time.monotonic()
                method, path, headers, raw = request
                status, payload, retry = await self._dispatch(
                    method, path, headers, raw, received_at
                )
                keep_alive = headers.get("connection", "keep-alive") != "close"
                self._respond(
                    writer, status, payload,
                    keep_alive=keep_alive, retry_after=retry,
                )
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                # CancelledError: server.close() during drain cancels this
                # task while it waits out the socket teardown — the task is
                # ending anyway, and re-raising from a finally would only
                # feed asyncio's noisy unhandled-exception callback.
                pass

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def _snapshot_loop(self) -> None:
        while True:
            await asyncio.sleep(self.snapshot_interval)
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, self.app.periodic_snapshot)

    async def serve(self, on_started=None) -> None:
        """Run until a stop signal, then drain and tear down."""
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._stop_event = asyncio.Event()
        self._sem = asyncio.Semaphore(self.max_inflight)
        self._handlers = ThreadPoolExecutor(
            max_workers=self.max_inflight, thread_name_prefix="serve-handler"
        )
        server = await asyncio.start_server(self._handle_conn, self.host, self.port)
        self.bound_port = server.sockets[0].getsockname()[1]
        if self.port_file is not None:
            self.port_file.write_text(str(self.bound_port))
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self._stop_event.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        snapshots = (
            asyncio.create_task(self._snapshot_loop())
            if self.snapshot_interval > 0
            else None
        )
        if on_started is not None:
            on_started(self)
        try:
            await self._stop_event.wait()
        finally:
            server.close()
            await server.wait_closed()
            if snapshots is not None:
                snapshots.cancel()
            drain_until = loop.time() + _DRAIN_SECONDS
            while self._inflight > 0 and loop.time() < drain_until:
                await asyncio.sleep(0.02)
            self._handlers.shutdown(wait=False, cancel_futures=True)
            self.app.close()

    def run(self) -> None:
        """Blocking entry point (the CLI's)."""
        asyncio.run(self.serve())

    def request_stop(self) -> None:
        """Thread-safe graceful-shutdown trigger."""
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)

    def start_background(self, timeout: float = 15.0) -> threading.Thread:
        """Run the server on a daemon thread; returns once the port is bound.

        Test affordance: ``bound_port`` is set when this returns, and
        :meth:`request_stop` + ``thread.join()`` is a full graceful stop.
        """
        started = threading.Event()
        def _runner() -> None:
            asyncio.run(self.serve(on_started=lambda _self: started.set()))
        thread = threading.Thread(target=_runner, name="serve-http", daemon=True)
        thread.start()
        if not started.wait(timeout):
            raise RuntimeError("serve HTTP server failed to start in time")
        return thread
