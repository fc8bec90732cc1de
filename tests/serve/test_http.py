"""The HTTP transport: routing, admission control, health, graceful stop."""

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.obs import load_trace, summarize_trace
from repro.serve import http as http_module
from repro.serve.app import ServeApp
from repro.serve.client import ServeClient, ServeResponseError
from repro.serve.http import ServeHTTP
from repro.serve.loadgen import synthetic_batch
from repro.session import ExecutionPolicy, Session


def _policy(**overrides):
    base = dict(
        scale="smoke", telemetry="summary", executor="serial",
        failure_mode="fallback",
    )
    base.update(overrides)
    return ExecutionPolicy(**base)


@pytest.fixture
def server(tmp_path):
    """A live background server on an ephemeral port, torn down cleanly."""
    app = ServeApp(tmp_path / "data", Session(_policy()))
    http = ServeHTTP(app, port=0, snapshot_interval=0.0)
    thread = http.start_background()
    yield http
    http.request_stop()
    thread.join(15.0)
    assert not thread.is_alive()


def _client(server):
    return ServeClient("127.0.0.1", server.bound_port, timeout=30)


def _until(predicate, timeout=10.0):
    """Poll ``predicate`` until it holds; whether it did within ``timeout``."""
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def _raw_reply(port, request: bytes) -> bytes:
    """Send raw bytes on a fresh connection; everything read until EOF."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(request)
        return _read_to_eof(sock)


def _read_to_eof(sock) -> bytes:
    data = b""
    while chunk := sock.recv(65536):
        data += chunk
    return data


def _status_and_body(reply: bytes):
    head, _, body = reply.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = dict(line.split(": ", 1) for line in lines[1:])
    return int(lines[0].split()[1]), headers, json.loads(body)


def _seed_tenant(client, name="acme", rows=60, dims=3):
    client.create_tenant(name, 10.0)
    X, y = synthetic_batch(11, 0, 0, rows, dims)
    client.ingest(name, "linear", dims, X.tolist(), y.tolist())


class TestRoutes:
    def test_full_roundtrip(self, server):
        with _client(server) as client:
            assert client.healthz()["status"] == "ok"
            assert client.readyz()["ready"] is True
            _seed_tenant(client)
            result = client.fit("acme", "linear", 3, [0.5, 1.0], seed=42)
            assert result["n_rows"] == 60
            assert len(result["digest"]) == 64
            status = client.status("acme")
            assert status["budget"]["spent"] == pytest.approx(1.5)
            assert client.snapshot()["snapshots_written"] >= 1

    def test_error_statuses_on_the_wire(self, server):
        with _client(server) as client:
            with pytest.raises(ServeResponseError) as exc:
                client.status("ghost")
            assert exc.value.status == 404 and not exc.value.retryable
            with pytest.raises(ServeResponseError) as exc:
                client.request("POST", "/v1/tenants", {"tenant": "", "total_epsilon": 1})
            assert exc.value.status == 400
            with pytest.raises(ServeResponseError) as exc:
                client.request("GET", "/v1/nope", None)
            assert exc.value.status == 404

    def test_malformed_json_is_a_400(self, server):
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", server.bound_port, timeout=10)
        try:
            conn.request(
                "POST", "/v1/tenants", body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            assert response.status == 400
        finally:
            conn.close()

    def test_budget_refusal_maps_to_409(self, server):
        with _client(server) as client:
            _seed_tenant(client)
            client.fit("acme", "linear", 3, [9.0], seed=1)
            with pytest.raises(ServeResponseError) as exc:
                client.fit("acme", "linear", 3, [9.0], seed=2)
            assert exc.value.status == 409
            assert exc.value.code == "budget_exhausted"
            assert not exc.value.retryable

    def test_readyz_reports_admission_gauges(self, server):
        with _client(server) as client:
            body = client.readyz()
            assert body["max_inflight"] == server.max_inflight
            assert body["max_queue"] == server.max_queue
            assert body["inflight"] >= 0


def _slow_status_server(tmp_path, max_queue):
    """One inflight slot; ``status`` blocks until ``release`` is set."""
    app = ServeApp(tmp_path / "data", Session(_policy()))
    release = threading.Event()
    entered = threading.Event()
    original = app.status

    def slow_status(name):
        entered.set()
        release.wait(10.0)
        return original(name)

    app.status = slow_status
    http = ServeHTTP(app, port=0, max_inflight=1, max_queue=max_queue,
                     snapshot_interval=0.0)
    thread = http.start_background()
    yield http, entered, release
    release.set()
    http.request_stop()
    thread.join(15.0)
    assert not thread.is_alive()


def _status_in_thread(http, results):
    """Call ``status`` on its own connection; the reply or error lands in
    ``results``."""
    def call():
        with ServeClient("127.0.0.1", http.bound_port, timeout=30) as client:
            try:
                results.append(client.status("acme"))
            except ServeResponseError as err:
                results.append(err)

    thread = threading.Thread(target=call)
    thread.start()
    return thread


class TestBackpressure:
    @pytest.fixture
    def tiny_server(self, tmp_path):
        """One inflight slot, zero queue slots: the sheddiest possible box."""
        yield from _slow_status_server(tmp_path, max_queue=0)

    @pytest.fixture
    def queued_server(self, tmp_path):
        """One inflight slot and one queue slot."""
        yield from _slow_status_server(tmp_path, max_queue=1)

    def test_overload_sheds_retryably_never_queues(self, tiny_server):
        http, entered, release = tiny_server
        with ServeClient("127.0.0.1", http.bound_port, timeout=30) as client:
            client.create_tenant("acme", 10.0)

            blocker_error = []
            def blocker():
                blocked = ServeClient("127.0.0.1", http.bound_port, timeout=30)
                try:
                    blocked.status("acme")
                except ServeResponseError as err:  # pragma: no cover
                    blocker_error.append(err)
                finally:
                    blocked.close()

            thread = threading.Thread(target=blocker)
            thread.start()
            assert entered.wait(10.0), "blocker request never reached the app"
            # slot busy + queue of zero: this request must shed immediately,
            # not wait behind the blocker
            started = time.monotonic()
            with pytest.raises(ServeResponseError) as exc:
                client.status("acme")
            assert time.monotonic() - started < 5.0
            assert exc.value.status == 503
            assert exc.value.code == "overloaded"
            assert exc.value.retryable
            # health probes bypass admission even while saturated
            assert client.healthz()["status"] == "ok"
            ready = client.readyz()
            assert ready["inflight"] == 1
            release.set()
            thread.join(10.0)
            assert not blocker_error
        summary = http.app.session.recorder.summary()
        assert summary["counters"]["serve.shed_requests"] >= 1
        assert summary["gauges"]["serve.inflight"]["max"] >= 1.0

    def test_shed_clients_recover_with_retries(self, tiny_server):
        http, entered, release = tiny_server
        with ServeClient("127.0.0.1", http.bound_port, timeout=30) as client:
            client.create_tenant("acme", 10.0)

            def blocker():
                with ServeClient("127.0.0.1", http.bound_port, timeout=30) as shed:
                    shed.status("acme")

            thread = threading.Thread(target=blocker)
            thread.start()
            assert entered.wait(10.0)
            # schedule the slot to free up while the shed client backs off
            threading.Timer(0.3, release.set).start()
            result = client.with_retries(
                lambda: client.status("acme"), max_retries=10,
                backoff_seconds=0.1,
            )
            assert result["tenant"] == "acme"
            thread.join(10.0)

    def test_queued_request_leaves_the_queue(self, queued_server):
        http, entered, release = queued_server
        results = []
        with ServeClient("127.0.0.1", http.bound_port, timeout=30) as client:
            client.create_tenant("acme", 10.0)
            blocker = _status_in_thread(http, results)
            assert entered.wait(10.0), "blocker request never reached the app"
            # a queued request whose client hangs up gives its place back
            # without running
            hung = socket.create_connection(("127.0.0.1", http.bound_port), timeout=10)
            hung.sendall(b"GET /v1/tenants/acme HTTP/1.1\r\nHost: x\r\n\r\n")
            assert _until(lambda: http._waiting == 1)
            assert client.readyz()["queue_waiting"] == 1
            hung.close()
            assert _until(lambda: http._waiting == 0)
            ready = client.readyz()
            assert ready["inflight"] == 1
            assert ready["queue_waiting"] == 0
            # with the slot still busy, the next request takes the freed
            # queue place instead of being shed on a phantom queue; once it
            # completes, the queue is empty again
            follower = _status_in_thread(http, results)
            assert _until(lambda: http._waiting == 1)
            release.set()
            blocker.join(10.0)
            follower.join(10.0)
            assert client.readyz()["queue_waiting"] == 0
        assert [type(r) for r in results] == [dict, dict], results

    def test_admission_counts_hold_under_thread_contention(self, tmp_path):
        """More client threads than cores and slots: no lost count update."""
        app = ServeApp(tmp_path / "data", Session(_policy()))
        http = ServeHTTP(app, port=0, max_inflight=2, max_queue=2, snapshot_interval=0.0)
        thread = http.start_background()
        statuses = []
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with _client(http) as client:
                client.create_tenant("acme", 10.0)

            def hammer():
                with _client(http) as client:
                    for _ in range(25):
                        try:
                            client.status("acme")
                            statuses.append(200)
                        except ServeResponseError as err:
                            statuses.append((err.status, err.code))

            workers = [threading.Thread(target=hammer) for _ in range(6)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(60.0)
            assert not any(worker.is_alive() for worker in workers)
        finally:
            sys.setswitchinterval(switch)
            http.request_stop()
            thread.join(15.0)
        assert not thread.is_alive()
        assert len(statuses) == 150
        assert set(statuses) <= {200, (503, "overloaded")}
        assert (http._inflight, http._waiting, http._requests) == (0, 0, 0)
        gauges = app.session.recorder.summary()["gauges"]
        assert gauges["serve.inflight"]["max"] <= 2
        assert gauges["serve.queue_waiting"]["max"] <= 2
        assert gauges["serve.inflight"]["last"] == gauges["serve.queue_waiting"]["last"] == 0


class TestDeadlines:
    def test_deadline_header_rejects_retryably(self, server):
        with _client(server) as client:
            _seed_tenant(client)
            # 1ms can expire crossing the wire / queue — and must reject
            # *before* the spend when it does
            accepted = 0
            rejected = 0
            for seed in range(3):
                try:
                    client.fit(
                        "acme", "linear", 3, [0.5], seed=seed, deadline_ms=1
                    )
                    accepted += 1
                except ServeResponseError as err:
                    assert err.status == 504
                    assert err.code == "deadline_exceeded"
                    assert err.retryable
                    rejected += 1
            # the ledger records exactly the accepted fits: a deadline
            # rejection happens strictly before the spend becomes durable
            spent = client.status("acme")["budget"]["spent"]
            assert spent == pytest.approx(0.5 * accepted)
            assert accepted + rejected == 3

    def test_generous_deadline_passes_through(self, server):
        with _client(server) as client:
            _seed_tenant(client)
            result = client.fit(
                "acme", "linear", 3, [0.5], seed=1, deadline_ms=60_000
            )
            assert result["spent_epsilon"] == pytest.approx(0.5)

    def test_bad_deadline_rejected(self, server):
        with _client(server) as client:
            _seed_tenant(client)
            with pytest.raises(ServeResponseError) as exc:
                client.request(
                    "POST", "/v1/fit",
                    {"tenant": "acme", "task": "linear", "dims": 3,
                     "epsilons": [0.5], "seed": 1, "deadline_ms": -5},
                )
            assert exc.value.status == 400

    def test_non_finite_deadline_rejected_before_any_spend(self, server):
        fit = {"tenant": "acme", "task": "linear", "dims": 3,
               "epsilons": [0.5], "seed": 1}
        cases = [({"X-Deadline-Ms": raw}, fit)
                 for raw in ("nan", "NaN", "inf", "-inf", "Infinity")]
        cases += [({}, dict(fit, deadline_ms=raw)) for raw in ("nan", "inf", "-Infinity")]
        with _client(server) as client:
            _seed_tenant(client)
            for headers, body in cases:
                with pytest.raises(ServeResponseError) as exc:
                    client.request("POST", "/v1/fit", body, headers)
                assert exc.value.status == 400, headers or body
                assert exc.value.code == "bad_request"
            budget = client.status("acme")["budget"]
        # a NaN deadline never expires; it must not reach the spend
        assert budget["spent"] == 0.0
        assert budget["entries"] == 0


class TestShutdown:
    def test_shutdown_endpoint_drains_and_persists(self, tmp_path):
        app = ServeApp(tmp_path / "data", Session(_policy()))
        http = ServeHTTP(app, port=0, snapshot_interval=0.0)
        thread = http.start_background()
        with ServeClient("127.0.0.1", http.bound_port, timeout=30) as client:
            _seed_tenant(client)
            client.fit("acme", "linear", 3, [1.0], seed=5)
            assert client.shutdown()["status"] == "draining"
        thread.join(15.0)
        assert not thread.is_alive()
        # the drain snapshot made the rows durable alongside the ledger
        fresh = ServeApp(tmp_path / "data", Session(_policy()))
        try:
            status = fresh.status("acme")
            assert status["budget"]["spent"] == pytest.approx(1.0)
            assert status["accumulators"]["linear-d3"]["n_rows"] == 60
        finally:
            fresh.close()

    def test_periodic_snapshot_loop_runs(self, tmp_path):
        session = Session(_policy())
        app = ServeApp(tmp_path / "data", session)
        http = ServeHTTP(app, port=0, snapshot_interval=0.05)
        thread = http.start_background()
        try:
            with ServeClient("127.0.0.1", http.bound_port, timeout=30) as client:
                _seed_tenant(client)
                deadline = time.monotonic() + 10.0
                acc = tmp_path / "data" / "tenants" / "acme" / "acc" / "linear-d3.acc"
                while not acc.exists() and time.monotonic() < deadline:
                    time.sleep(0.05)
                assert acc.exists(), "periodic snapshot never wrote the container"
        finally:
            http.request_stop()
            thread.join(15.0)
        assert session.recorder.summary()["counters"]["serve.snapshot_writes"] >= 1


def _served_connection(port):
    """A keep-alive connection that was served once and is now idle."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    conn.request("GET", "/healthz")
    assert conn.getresponse().read()
    return conn


def _connection_threads() -> int:
    return sum(thread.name == "serve-conn" for thread in threading.enumerate())


class TestRequestLimits:
    def test_overlong_request_line_is_a_400_that_closes(self, server):
        target = b"/" + b"a" * http_module._MAX_LINE_BYTES
        reply = _raw_reply(server.bound_port, b"GET " + target + b" HTTP/1.1\r\n\r\n")
        status, headers, body = _status_and_body(reply)
        assert status == 400
        assert body["error"]["code"] == "bad_request"
        assert headers["Connection"] == "close"
        with _client(server) as client:
            assert client.healthz()["status"] == "ok"

    def test_overlong_header_line_is_a_400(self, server):
        header = b"X-Big: " + b"a" * http_module._MAX_LINE_BYTES + b"\r\n"
        reply = _raw_reply(server.bound_port, b"GET /healthz HTTP/1.1\r\n" + header + b"\r\n")
        assert _status_and_body(reply)[0] == 400

    def test_header_count_is_capped(self, server):
        def request(n_headers):
            headers = b"Connection: close\r\n" + b"".join(
                b"X-H%d: v\r\n" % i for i in range(n_headers - 1)
            )
            return _raw_reply(server.bound_port, b"GET /healthz HTTP/1.1\r\n" + headers + b"\r\n")

        assert _status_and_body(request(http_module._MAX_HEADERS))[0] == 200
        status, _, body = _status_and_body(request(http_module._MAX_HEADERS + 1))
        assert status == 400
        assert body["error"]["code"] == "bad_request"


class TestConnections:
    @pytest.fixture
    def small_server(self, tmp_path):
        app = ServeApp(tmp_path / "data", Session(_policy()))
        http = ServeHTTP(app, port=0, max_inflight=1, max_queue=1, snapshot_interval=0.0)
        thread = http.start_background()
        yield http
        http.request_stop()
        thread.join(15.0)
        assert not thread.is_alive()

    def test_connection_past_the_cap_is_refused_without_a_thread(self, small_server):
        http = small_server
        cap = http.max_inflight + http.max_queue + http_module._PROBE_RESERVE
        idle = [_served_connection(http.bound_port) for _ in range(cap)]
        try:
            assert len(http._connections) == cap
            threads = _connection_threads()
            with socket.create_connection(("127.0.0.1", http.bound_port), timeout=10) as extra:
                status, headers, body = _status_and_body(_read_to_eof(extra))
            assert status == 503
            assert body["error"]["code"] == "overloaded"
            assert body["error"]["retryable"]
            assert headers["Retry-After"] == "1"
            assert headers["Connection"] == "close"
            assert len(http._connections) == cap
            assert _connection_threads() <= threads
        finally:
            for conn in idle:
                conn.close()
        # closed connections leave no record, and a new one is served again
        assert _until(lambda: not http._connections)
        with _client(http) as client:
            assert client.healthz()["status"] == "ok"
        counters = http.app.session.recorder.summary()["counters"]
        assert counters["serve.shed_connections"] == 1

    def test_finished_connections_leave_no_record(self, server):
        for _ in range(20):
            with _client(server) as client:
                client.healthz()
        assert _until(lambda: not server._connections)

    def test_idle_connection_times_out(self, tmp_path, monkeypatch):
        monkeypatch.setattr(http_module, "_IDLE_SECONDS", 0.2)
        app = ServeApp(tmp_path / "data", Session(_policy()))
        http = ServeHTTP(app, port=0, snapshot_interval=0.0)
        thread = http.start_background()
        try:
            conn = _served_connection(http.bound_port)
            assert _until(lambda: not http._connections, timeout=5.0)
            assert conn.sock.recv(1) == b""
            conn.close()
        finally:
            http.request_stop()
            thread.join(15.0)

    def test_accepted_sockets_set_tcp_nodelay(self, server):
        conn = _served_connection(server.bound_port)
        try:
            (sock,) = server._connections
            assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        finally:
            conn.close()


class TestDrain:
    def test_drain_closes_idle_keep_alive_connections(self, tmp_path):
        app = ServeApp(tmp_path / "data", Session(_policy()))
        http = ServeHTTP(app, port=0, snapshot_interval=0.0)
        thread = http.start_background()
        idle = _served_connection(http.bound_port)
        started = time.monotonic()
        http.request_stop()
        thread.join(15.0)
        assert not thread.is_alive()
        # the drain shut the idle connection instead of waiting it out
        assert time.monotonic() - started < http_module._IDLE_SECONDS / 2
        assert idle.sock.recv(1) == b""
        idle.close()

    @pytest.mark.parametrize("stop", ["shutdown", "SIGTERM", "SIGINT"])
    def test_serve_cli_drains_with_idle_connections_open(self, tmp_path, stop):
        port_file = tmp_path / "port.txt"
        trace = tmp_path / "serve.jsonl"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--data-dir", str(tmp_path / "data"), "--port", "0",
                "--port-file", str(port_file), "--snapshot-interval", "0.05",
                "--trace", str(trace),
            ],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        )
        idle = []
        try:
            assert _until(lambda: port_file.exists() or proc.poll() is not None, 30.0)
            port = int(port_file.read_text())
            with ServeClient("127.0.0.1", port, timeout=30) as client:
                _seed_tenant(client)
                client.fit("acme", "linear", 3, [0.5], seed=3)
                idle = [_served_connection(port) for _ in range(2)]
                if stop == "shutdown":
                    client.shutdown()
                else:
                    proc.send_signal(getattr(signal, stop))
            out, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=10)
        text = out.decode(errors="replace")
        assert proc.returncode == 0, text
        assert "shut down cleanly" in text
        assert "Traceback" not in text and "Unhandled exception" not in text
        for conn in idle:
            assert conn.sock.recv(1) == b""
            conn.close()
        report = summarize_trace(load_trace(trace))
        names = {line.split()[0] for line in report.splitlines() if line.startswith("serve.")}
        assert {"serve.request", "serve.read", "serve.admission_wait",
                "serve.decode", "serve.write", "serve.fit"} <= names


class TestRequestSpans:
    def _serve_one_fit(self, tmp_path, telemetry):
        app = ServeApp(tmp_path / telemetry, Session(_policy(telemetry=telemetry)))
        http = ServeHTTP(app, port=0, snapshot_interval=0.0)
        thread = http.start_background()
        try:
            with _client(http) as client:
                _seed_tenant(client)
                digest = client.fit("acme", "linear", 3, [0.5, 1.0], seed=42)["digest"]
        finally:
            http.request_stop()
            thread.join(15.0)
        return app.session.recorder, digest

    def test_request_phases_nest_under_one_request_span(self, tmp_path):
        recorder, _ = self._serve_one_fit(tmp_path, "trace")
        events = recorder.events()
        by_id = {event["id"]: event for event in events}
        named = lambda name: [e for e in events if e["name"] == name]  # noqa: E731
        # create_tenant, ingest, fit: one request span each, all roots
        requests = named("serve.request")
        assert len(requests) == 3
        assert all(event["parent"] is None for event in requests)
        for phase in ("serve.read", "serve.admission_wait", "serve.decode",
                      "serve.write", "serve.create_tenant", "serve.ingest", "serve.fit"):
            spans = named(phase)
            assert spans, phase
            assert all(by_id[e["parent"]]["name"] == "serve.request" for e in spans), phase
        assert len(named("serve.read")) == len(named("serve.write")) == 3

    def test_request_spans_are_digest_neutral(self, tmp_path):
        _, traced = self._serve_one_fit(tmp_path, "trace")
        _, untraced = self._serve_one_fit(tmp_path, "off")
        assert traced == untraced
