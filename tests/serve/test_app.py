"""ServeApp: the transport-independent service core and its spend barrier."""

import pytest

from repro.serve.app import ServeApp
from repro.serve.protocol import (
    BadRequestError,
    BudgetRefusedError,
    Deadline,
    DeadlineExceededError,
    NotReadyError,
    TenantExistsError,
    UnknownTenantError,
)
from repro.serve.loadgen import synthetic_batch
from repro.session import ExecutionPolicy, Session


def _policy(**overrides):
    base = dict(
        scale="smoke", telemetry="summary", executor="serial",
        failure_mode="fallback",
    )
    base.update(overrides)
    return ExecutionPolicy(**base)


def _app(tmp_path, **policy_overrides):
    return ServeApp(tmp_path / "data", Session(_policy(**policy_overrides)))


def _ingest_body(tenant="acme", rows=60, dims=3, batch=0):
    X, y = synthetic_batch(11, 0, batch, rows, dims)
    return {
        "tenant": tenant, "task": "linear", "dims": dims,
        "x": X.tolist(), "y": y.tolist(),
    }


def _fit_body(tenant="acme", epsilons=(0.5, 1.0), seed=42, dims=3):
    return {
        "tenant": tenant, "task": "linear", "dims": dims,
        "epsilons": list(epsilons), "seed": seed,
    }


class TestLifecycle:
    def test_create_ingest_fit_status(self, tmp_path):
        with _app(tmp_path) as app:
            created = app.create_tenant({"tenant": "acme", "total_epsilon": 10.0})
            assert created["budget"]["remaining"] == 10.0
            ingested = app.ingest(_ingest_body())
            assert ingested["n_rows"] == 60
            result = app.fit(_fit_body())
            assert result["n_rows"] == 60
            assert result["spent_epsilon"] == pytest.approx(1.5)
            assert len(result["omegas"]) == 2
            assert len(result["digest"]) == 64
            status = app.status("acme")
            assert status["budget"]["spent"] == pytest.approx(1.5)
            assert status["accumulators"]["linear-d3"]["n_rows"] == 60

    def test_duplicate_tenant(self, tmp_path):
        with _app(tmp_path) as app:
            app.create_tenant({"tenant": "acme", "total_epsilon": 1.0})
            with pytest.raises(TenantExistsError):
                app.create_tenant({"tenant": "acme", "total_epsilon": 1.0})

    def test_unknown_tenant_routes(self, tmp_path):
        with _app(tmp_path) as app:
            with pytest.raises(UnknownTenantError):
                app.ingest(_ingest_body(tenant="ghost"))
            with pytest.raises(UnknownTenantError):
                app.fit(_fit_body(tenant="ghost"))
            with pytest.raises(UnknownTenantError):
                app.status("ghost")

    def test_fit_without_rows_rejected(self, tmp_path):
        with _app(tmp_path) as app:
            app.create_tenant({"tenant": "acme", "total_epsilon": 1.0})
            with pytest.raises(BadRequestError, match="no rows"):
                app.fit(_fit_body())

    def test_out_of_domain_rows_rejected(self, tmp_path):
        with _app(tmp_path) as app:
            app.create_tenant({"tenant": "acme", "total_epsilon": 1.0})
            body = _ingest_body()
            body["x"][0] = [5.0, 5.0, 5.0]  # ||x|| > 1
            with pytest.raises(BadRequestError):
                app.ingest(body)
            # the batch was rejected atomically — nothing ingested
            accs = app.status("acme")["accumulators"]
            assert all(entry["n_rows"] == 0 for entry in accs.values())

    def test_close_is_idempotent_and_drains(self, tmp_path):
        app = _app(tmp_path)
        app.create_tenant({"tenant": "acme", "total_epsilon": 1.0})
        app.close()
        app.close()
        with pytest.raises(NotReadyError):
            app.fit(_fit_body())
        with pytest.raises(NotReadyError):
            app.readyz()
        assert app.healthz()["status"] == "closed"


class TestSpendBarrier:
    def test_budget_refusal_is_durable_409(self, tmp_path):
        with _app(tmp_path) as app:
            app.create_tenant({"tenant": "acme", "total_epsilon": 2.0})
            app.ingest(_ingest_body())
            app.fit(_fit_body(epsilons=(0.5, 1.0)))  # spends 1.5 of 2.0
            with pytest.raises(BudgetRefusedError):
                app.fit(_fit_body(epsilons=(1.0,), seed=43))
            # the refused request spent nothing
            assert app.status("acme")["budget"]["spent"] == pytest.approx(1.5)

    def test_expired_deadline_rejects_before_any_spend(self, tmp_path):
        with _app(tmp_path) as app:
            app.create_tenant({"tenant": "acme", "total_epsilon": 10.0})
            app.ingest(_ingest_body())
            expired = Deadline.after_ms(1, now=-10.0)
            with pytest.raises(DeadlineExceededError):
                app.fit(_fit_body(), deadline=expired)
            # retryable contract: a deadline rejection left the ledger alone
            assert app.status("acme")["budget"]["spent"] == 0.0

    def test_sequential_composition_across_requests(self, tmp_path):
        with _app(tmp_path) as app:
            app.create_tenant({"tenant": "acme", "total_epsilon": 5.0})
            app.ingest(_ingest_body())
            for seed in (1, 2, 3):
                app.fit(_fit_body(epsilons=(0.5,), seed=seed))
            status = app.status("acme")
            assert status["budget"]["spent"] == pytest.approx(1.5)
            assert status["budget"]["entries"] == 3


class TestDeterminism:
    def _digest(self, tmp_path, name, **policy_overrides):
        with ServeApp(
            tmp_path / name, Session(_policy(**policy_overrides))
        ) as app:
            app.create_tenant({"tenant": "acme", "total_epsilon": 10.0})
            app.ingest(_ingest_body())
            return app.fit(_fit_body())["digest"]

    def test_digest_is_executor_independent(self, tmp_path):
        serial = self._digest(tmp_path, "serial", executor="serial")
        thread = self._digest(tmp_path, "thread", executor="thread", max_workers=2)
        process = self._digest(
            tmp_path, "process", executor="process", max_workers=2
        )
        assert serial == thread == process

    def test_digest_is_neutral_to_a_worker_crash_plan(self, tmp_path):
        """A fit runs on the request's thread, never in a pool worker, so a
        ``worker.crash`` fault plan has no site to fire at: the digest
        must equal the fault-free one."""
        clean = self._digest(tmp_path, "clean", executor="process", max_workers=2)
        chaos = self._digest(
            tmp_path, "chaos", executor="process", max_workers=2,
            faults="seed=5;worker.crash=1.0x1",
        )
        assert chaos == clean

    def test_digest_is_neutral_to_retry_and_fallback_policy(self, tmp_path):
        """Neither a crash plan that would exhaust a process pool's
        retries nor the retry/fallback policy reaches a fit: the keyed
        substreams keep the released models bitwise identical."""
        clean = self._digest(tmp_path, "clean", executor="process", max_workers=2)
        degraded = self._digest(
            tmp_path, "degraded", executor="process", max_workers=2,
            faults="seed=5;worker.crash=1.0x20", max_retries=1,
        )
        assert degraded == clean

    def test_same_request_twice_same_omegas(self, tmp_path):
        with _app(tmp_path) as app:
            app.create_tenant({"tenant": "acme", "total_epsilon": 10.0})
            app.ingest(_ingest_body())
            first = app.fit(_fit_body(seed=7))
            second = app.fit(_fit_body(seed=7))
            assert first["omegas"] == second["omegas"]
            assert first["digest"] == second["digest"]
            # but both spent: determinism never bypasses the ledger
            assert app.status("acme")["budget"]["spent"] == pytest.approx(3.0)


class TestRestart:
    def test_restart_restores_budget_and_rows(self, tmp_path):
        data = tmp_path / "data"
        with ServeApp(data, Session(_policy())) as app:
            app.create_tenant({"tenant": "acme", "total_epsilon": 10.0})
            app.ingest(_ingest_body())
            before = app.fit(_fit_body())
        # close() took a final forced snapshot; a fresh app restores all
        with ServeApp(data, Session(_policy())) as app:
            assert app.restored_tenants == 1
            status = app.status("acme")
            assert status["budget"]["spent"] == pytest.approx(1.5)
            assert status["accumulators"]["linear-d3"]["n_rows"] == 60
            again = app.fit(_fit_body())
            assert again["digest"] == before["digest"]
            assert again["omegas"] == before["omegas"]

    def test_restart_never_resets_spent_budget(self, tmp_path):
        data = tmp_path / "data"
        with ServeApp(data, Session(_policy())) as app:
            app.create_tenant({"tenant": "acme", "total_epsilon": 2.0})
            app.ingest(_ingest_body())
            app.fit(_fit_body(epsilons=(1.5,)))
        with ServeApp(data, Session(_policy())) as app:
            with pytest.raises(BudgetRefusedError):
                app.fit(_fit_body(epsilons=(1.0,), seed=43))


class TestAmbience:
    def test_app_lifecycle_restores_the_ambient_slots(self, tmp_path):
        """Regression: the app installs its session's recorder/injector as
        the process ambience once (concurrent per-request swaps would race
        their save/restore); close() must put the previous ambience back,
        or a chaos app would leak its fault plan into every later forked
        pool in the process."""
        import repro.faults.injector as injector_module
        import repro.obs as obs_module

        before_injector = injector_module._ACTIVE
        before_recorder = obs_module._ACTIVE
        app = _app(tmp_path, faults="seed=5;worker.crash=1.0x5")
        assert injector_module._ACTIVE is app.session.injector
        assert obs_module._ACTIVE is app.session.recorder
        app.create_tenant({"tenant": "acme", "total_epsilon": 1.0})
        app.close()
        assert injector_module._ACTIVE is before_injector
        assert obs_module._ACTIVE is before_recorder


class TestObservability:
    def test_fit_counters_and_spans(self, tmp_path):
        session = Session(_policy())
        with ServeApp(tmp_path / "data", session) as app:
            app.create_tenant({"tenant": "acme", "total_epsilon": 10.0})
            app.ingest(_ingest_body())
            app.fit(_fit_body())
        summary = session.recorder.summary()
        counters = summary["counters"]
        assert counters["serve.rows_ingested"] == 60
        assert counters["serve.fits"] == 1
        assert counters["serve.fit_models"] == 2
        assert counters["serve.tenants_created"] == 1
        assert "serve.fit" in summary["spans"]

    def test_budget_refusal_counter(self, tmp_path):
        session = Session(_policy())
        with ServeApp(tmp_path / "data", session) as app:
            app.create_tenant({"tenant": "acme", "total_epsilon": 0.1})
            app.ingest(_ingest_body())
            with pytest.raises(BudgetRefusedError):
                app.fit(_fit_body())
        assert session.recorder.summary()["counters"]["serve.budget_refusals"] == 1
