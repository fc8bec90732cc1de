"""Thread-per-connection HTTP/1.1 transport for :class:`repro.serve.app.ServeApp`.

A deliberately small standard-library server.  An accept loop gives each
connection a thread that reads a request, takes an admission slot,
decodes, calls the app and writes the reply, then waits for the next
request on the same keep-alive connection.  No request crosses threads:
a served fit is about a millisecond of work, and a hand-off to a handler
pool and back cost about as much again.

Endpoints
---------
``POST /v1/tenants`` ``{tenant, total_epsilon}`` creates a tenant;
``POST /v1/ingest`` ``{tenant, task, dims, x, y[, durable]}`` streams
rows; ``POST /v1/fit`` ``{tenant, task, dims, epsilons, seed}`` is a
budgeted fit; ``GET /v1/tenants/<name>`` is tenant status; ``POST
/v1/snapshot`` snapshots every tenant; ``POST /v1/shutdown`` (or SIGTERM,
SIGINT) drains and stops; ``GET /healthz`` is liveness and ``GET
/readyz`` readiness plus admission gauges (503 while draining).

Wire rules
----------
Request bodies are UTF-8 JSON objects decoded with ``orjson`` (the same
float64 bits as stdlib ``json`` for every finite number); responses are
encoded with ``json.dumps``.  A 400 ``bad_request`` that changes no
state answers a non-finite number (``NaN``, ``±Infinity``, ``1e400``),
invalid Unicode (a lone surrogate escape, bad UTF-8, a leading
byte-order mark) and a ``seed`` outside ``[-2**63, 2**64)`` (it decodes
as a float).  A request or header line over ``_MAX_LINE_BYTES``, or more
than ``_MAX_HEADERS`` header lines, is a 400 that closes the connection.

Backpressure and connections
----------------------------
At most ``max_inflight`` requests execute at once and ``max_queue`` more
wait for a slot; past that a request is shed *immediately* with a
retryable 503 (``overloaded``) and ``Retry-After``.  A queued request
whose client hangs up leaves the queue without running.  Health probes
and ``/v1/shutdown`` bypass admission.  A deadline (``X-Deadline-Ms`` or
``deadline_ms``: positive, finite milliseconds) is anchored at receipt,
so queue wait counts; the app checks it only before the budget spend.
Live connections, one thread each, are capped at ``max_inflight +
max_queue + _PROBE_RESERVE``; past the cap the accept loop answers a
retryable 503 (``overloaded``) and closes the connection without a
thread.  A connection idle for ``_IDLE_SECONDS`` is closed.

Shutdown drains: stop accepting and starting requests, let those in
progress finish (at most ``_DRAIN_SECONDS``), shut every connection, snapshot
every tenant, close the session.  The chaos tests cover ``kill -9`` instead.
"""

from __future__ import annotations

import contextlib
import json
import signal
import socket
import threading
import time
from http import HTTPStatus
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

#: Seconds granted to requests in progress during a graceful drain.
_DRAIN_SECONDS = 10.0
#: ``Retry-After`` hint (seconds) attached to retryable rejections.
_RETRY_AFTER = 1
#: Largest accepted request body (a full ingest batch of wide rows).
_MAX_BODY_BYTES = 64 * 1024 * 1024
#: Longest accepted request or header line, terminator included.
_MAX_LINE_BYTES = 64 * 1024
#: Most header lines accepted in one request.
_MAX_HEADERS = 100
#: Connections beyond ``max_inflight + max_queue``, for probes and shed replies.
_PROBE_RESERVE = 4
#: Seconds a connection may sit idle, or stall one read or write.
_IDLE_SECONDS = 30.0
#: How often the accept loop checks for a stop, and a queued client for a hang-up.
_POLL_SECONDS = 0.05


class _NotFound(ServeError):
    status = 404
    code = "not_found"
    retryable = False


def _encode(status: int, payload: dict, keep_alive: bool, retry_after: int | None) -> bytes:
    body = json.dumps(payload).encode()
    retry = "" if retry_after is None else f"Retry-After: {retry_after}\r\n"
    return (
        f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n{retry}\r\n"
    ).encode() + body


def _error_reply(err: ServeError) -> tuple[int, dict, int | None]:
    return err.status, err.to_wire(), _RETRY_AFTER if err.retryable else None


def _bounded(line: bytes) -> bytes:
    if len(line) > _MAX_LINE_BYTES:
        raise BadRequestError(f"request line longer than {_MAX_LINE_BYTES} bytes")
    return line


def _hung_up(sock: socket.socket) -> bool:
    """Whether the peer has closed its end (a non-blocking peek reads EOF)."""
    sock.settimeout(0.0)
    try:
        return sock.recv(1, socket.MSG_PEEK) == b""
    except OSError as exc:  # nothing to read yet, or the socket is broken
        return not isinstance(exc, BlockingIOError)
    finally:
        sock.settimeout(_IDLE_SECONDS)


class ServeHTTP:
    """Bounded-admission HTTP server around a :class:`ServeApp`."""

    def __init__(
        self, app: ServeApp, host: str = "127.0.0.1", port: int = 0, *,
        max_inflight: int = 8, max_queue: int = 32,
        snapshot_interval: float = 5.0, port_file: str | Path | None = None,
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
        # One lock guards the counts and the live connections; its conditions
        # wake a queued request when a slot frees and the drain when none is left.
        self._lock = threading.Lock()
        self._slot_freed = threading.Condition(self._lock)
        self._requests_done = threading.Condition(self._lock)
        self._inflight = self._waiting = self._requests = 0
        self._connections: set[socket.socket] = set()
        self._stop = threading.Event()

    def _publish_gauges(self) -> None:
        recorder = self.app.session.recorder
        if recorder.recording:
            recorder.gauge("serve.inflight", self._inflight)
            recorder.gauge("serve.queue_waiting", self._waiting)

    def _admission_extra(self) -> dict:
        return {"inflight": self._inflight, "queue_waiting": self._waiting,
                "max_inflight": self.max_inflight, "max_queue": self.max_queue}

    def _admit(self, sock: socket.socket) -> bool:
        """Take a slot, queueing if there is room; False sheds, a hang-up raises."""
        with self._lock:
            if self._inflight >= self.max_inflight:
                if self._waiting >= self.max_queue:
                    return False
                self._waiting += 1
                self._publish_gauges()
                try:
                    while self._inflight >= self.max_inflight:
                        if not self._slot_freed.wait(_POLL_SECONDS) and _hung_up(sock):
                            raise ConnectionAbortedError("client hung up while queued")
                finally:
                    self._waiting -= 1
                    self._publish_gauges()
            self._inflight += 1
            self._publish_gauges()
            return True

    @staticmethod
    def _read_request(line: bytes, rfile):
        """Parse one HTTP/1.1 request whose request line was already read."""
        parts = _bounded(line).decode("latin-1").split()
        if len(parts) < 2:
            raise BadRequestError("malformed request line")
        headers: dict[str, str] = {}
        for _ in range(_MAX_HEADERS + 1):
            raw = _bounded(rfile.readline(_MAX_LINE_BYTES + 1))
            if raw in (b"\r\n", b"\n", b""):
                break
            key, _, value = raw.decode("latin-1").partition(":")
            headers[key.strip().lower()] = value.strip()
        else:
            raise BadRequestError(f"more than {_MAX_HEADERS} header lines")
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise BadRequestError("malformed Content-Length") from None
        if length < 0 or length > _MAX_BODY_BYTES:
            raise BadRequestError(f"request body too large ({length} bytes)")
        body = rfile.read(length) if length else b""
        if len(body) < length:
            raise ConnectionAbortedError("connection closed mid-request")
        return parts[0].upper(), parts[1], headers, body

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

    def _deadline_for(self, headers: dict, body: dict, received_at: float) -> Deadline | None:
        """Deadline anchored at *receipt*, so queue wait counts against it."""
        raw = headers.get("x-deadline-ms", body.get("deadline_ms"))
        if raw is None:
            return None
        try:
            ms = float(raw)
        except (TypeError, ValueError):
            raise BadRequestError("deadline_ms must be a number") from None
        if not 0.0 < ms < float("inf"):  # NaN fails too: it would never expire
            raise BadRequestError("deadline_ms must be positive and finite")
        return Deadline.after_ms(ms, now=received_at)

    def _dispatch(self, sock: socket.socket, method: str, path: str, headers: dict,
                  raw: bytes, received_at: float) -> tuple[int, dict, int | None]:
        """Admission control, then route + execute; returns (status, body, retry)."""
        # Probes and shutdown bypass admission: an overloaded service must
        # still answer its orchestrator.
        if method == "GET" and path == "/healthz":
            return 200, self.app.healthz(), None
        if method == "GET" and path == "/readyz":
            try:
                return 200, self.app.readyz(self._admission_extra()), None
            except NotReadyError as err:
                return _error_reply(err)
        if method == "POST" and path == "/v1/shutdown":
            self.request_stop()
            return 200, {"status": "draining"}, None
        recorder = self.app.session.recorder
        with recorder.span("serve.admission_wait"):
            admitted = self._admit(sock)
        if not admitted:
            recorder.counter("serve.shed_requests")
            return _error_reply(OverloadedError(
                "admission queue full; retry with backoff", **self._admission_extra()
            ))
        try:
            with recorder.span("serve.decode"):
                body = self._parse_body(raw)
            if method == "POST" and path == "/v1/tenants":
                return 200, self.app.create_tenant(body), None
            if method == "POST" and path == "/v1/ingest":
                return 200, self.app.ingest(body), None
            if method == "POST" and path == "/v1/fit":
                deadline = self._deadline_for(headers, body, received_at)
                return 200, self.app.fit(body, deadline), None
            if method == "GET" and path.startswith("/v1/tenants/"):
                return 200, self.app.status(path[len("/v1/tenants/"):]), None
            if method == "POST" and path == "/v1/snapshot":
                return 200, self.app.snapshot(), None
            raise _NotFound(f"no route for {method} {path}")
        except ServeError as err:
            return _error_reply(err)
        except Exception as exc:
            recorder.counter("serve.internal_errors")
            return _error_reply(InternalServeError(f"{type(exc).__name__}: {exc}"))
        finally:
            with self._lock:
                self._inflight -= 1
                self._publish_gauges()
                self._slot_freed.notify()

    def _exchange(self, sock: socket.socket, rfile, line: bytes, recorder) -> bool:
        """Answer one request; returns whether the connection stays open."""
        try:
            with recorder.span("serve.read"):
                method, path, headers, raw = self._read_request(line, rfile)
        except BadRequestError as err:
            status, payload, retry = _error_reply(err)
            headers = {"connection": "close"}
        else:
            status, payload, retry = self._dispatch(sock, method, path, headers, raw,
                                                    time.monotonic())
        keep_alive = headers.get("connection", "keep-alive") != "close" and not self._stop.is_set()
        with recorder.span("serve.write"):
            sock.sendall(_encode(status, payload, keep_alive, retry))
        return keep_alive

    def _serve_connection(self, sock: socket.socket) -> None:
        """One connection's whole life, on its own thread."""
        recorder = self.app.session.recorder
        keep_alive = True
        try:
            with sock.makefile("rb") as rfile:
                while keep_alive:
                    line = rfile.readline(_MAX_LINE_BYTES + 1)  # idle time: no span
                    with self._lock:  # once stopping, no request starts
                        if not line or self._stop.is_set():
                            break
                        self._requests += 1
                    try:
                        with recorder.span("serve.request"):
                            keep_alive = self._exchange(sock, rfile, line, recorder)
                    finally:
                        with self._lock:
                            self._requests -= 1
                            self._requests_done.notify_all()
        except OSError:  # a reset, a hang-up, an idle timeout or the drain
            pass
        finally:
            with self._lock:
                self._connections.discard(sock)
            sock.close()

    def _accept(self, sock: socket.socket) -> None:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        cap = self.max_inflight + self.max_queue + _PROBE_RESERVE
        with self._lock:
            admitted = len(self._connections) < cap
            if admitted:
                self._connections.add(sock)
        if admitted:
            sock.settimeout(_IDLE_SECONDS)
            threading.Thread(
                target=self._serve_connection, args=(sock,), name="serve-conn", daemon=True
            ).start()
            return
        # Past the cap: a retryable 503 from the accept loop, then close.
        self.app.session.recorder.counter("serve.shed_connections")
        err = OverloadedError("connection limit reached; retry with backoff",
                              max_connections=cap)
        sock.setblocking(False)  # a reply this small fits the empty send buffer
        with contextlib.suppress(OSError), sock:
            sock.sendall(_encode(err.status, err.to_wire(), False, _RETRY_AFTER))

    def _snapshot_loop(self) -> None:
        while not self._stop.wait(self.snapshot_interval):
            self.app.periodic_snapshot()

    def serve(self, on_started=None) -> None:
        """Accept connections until a stop signal, then drain and tear down."""
        family = socket.AF_INET6 if ":" in self.host else socket.AF_INET  # "" = every address
        listener = socket.create_server((self.host, self.port), family=family)
        listener.settimeout(_POLL_SECONDS)
        self.bound_port = listener.getsockname()[1]
        if self.port_file is not None:
            self.port_file.write_text(str(self.bound_port))
        main = threading.current_thread() is threading.main_thread()
        signals = {sig: signal.signal(sig, lambda *_: self._stop.set())
                   for sig in (signal.SIGTERM, signal.SIGINT) if main}
        snapshots = threading.Thread(target=self._snapshot_loop, daemon=True)
        if self.snapshot_interval > 0:
            snapshots.start()
        try:
            if on_started is not None:
                on_started(self)
            while not self._stop.is_set():
                try:
                    sock, _ = listener.accept()
                except TimeoutError:
                    continue
                except OSError:  # the client left first, or descriptors ran out
                    time.sleep(_POLL_SECONDS)
                    continue
                self._accept(sock)
        finally:
            listener.close()
            if not self._stop.is_set():  # only after an error: a signal in set() would deadlock
                self._stop.set()
            if snapshots.is_alive():
                snapshots.join(_DRAIN_SECONDS)
            with self._lock:
                self._requests_done.wait_for(lambda: not self._requests, _DRAIN_SECONDS)
                for sock in self._connections:  # none can close meanwhile: we hold the lock
                    with contextlib.suppress(OSError):
                        sock.shutdown(socket.SHUT_RDWR)
            self.app.close()
            for sig, handler in signals.items():
                signal.signal(sig, handler)

    def request_stop(self) -> None:
        """Thread-safe graceful-shutdown trigger."""
        self._stop.set()

    def start_background(self, timeout: float = 15.0) -> threading.Thread:
        """Serve on a daemon thread; returns once ``bound_port`` is set.

        :meth:`request_stop` + ``thread.join()`` is then a full graceful stop.
        """
        started = threading.Event()
        thread = threading.Thread(target=self.serve, args=(lambda _: started.set(),),
                                  name="serve-http", daemon=True)
        thread.start()
        if not started.wait(timeout):
            raise RuntimeError("serve HTTP server failed to start in time")
        return thread
