"""The HTTP transport: routing, admission control, health, graceful stop."""

import asyncio
import threading
import time

import pytest

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
            thread = threading.Thread(
                target=lambda: ServeClient(
                    "127.0.0.1", http.bound_port, timeout=30
                ).status("acme")
            )
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

    def test_cancelled_queued_request_leaves_the_queue(self, queued_server):
        http, entered, release = queued_server
        results = []
        with ServeClient("127.0.0.1", http.bound_port, timeout=30) as client:
            client.create_tenant("acme", 10.0)
            blocker = _status_in_thread(http, results)
            assert entered.wait(10.0), "blocker request never reached the app"
            queued = asyncio.run_coroutine_threadsafe(
                http._dispatch("GET", "/v1/tenants/acme", {}, b"", time.monotonic()),
                http._loop,
            )
            deadline = time.monotonic() + 5.0
            while http._waiting < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert client.readyz()["queue_waiting"] == 1
            queued.cancel()
            while http._waiting > 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            ready = client.readyz()
            assert ready["inflight"] == 1
            assert ready["queue_waiting"] == 0
            # with the slot still busy, the next request takes the freed
            # queue place instead of being shed on a phantom queue
            follower = _status_in_thread(http, results)
            while http._waiting < 1 and follower.is_alive():
                time.sleep(0.01)
            release.set()
            blocker.join(10.0)
            follower.join(10.0)
        assert [type(r) for r in results] == [dict, dict], results


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
