"""Chaos acceptance: a live service under faults + concurrent load.

The two invariants the serving layer stakes its name on, asserted here
end to end:

* **No under-recorded spends.**  Whatever crashes — workers, IO, the
  budget journal itself, or the whole process via ``kill -9`` — the
  durable ledger never records less than the sum of spends the service
  *accepted*.
* **No digest divergence.**  Every fit released under chaos is bitwise
  identical to the same fit computed in a clean run (and to an offline
  recomputation with no service at all), because noise streams are keyed
  by the request, not by execution order.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.serve.app import ServeApp
from repro.serve.check import verify_report
from repro.serve.http import ServeHTTP
from repro.serve.loadgen import LoadgenConfig, run_loadgen
from repro.session import ExecutionPolicy, Session

_CHAOS_PLAN = "seed=7;worker.crash=0.5x3;io.transient=0.4x4"


def _policy(**overrides):
    base = dict(
        scale="smoke", telemetry="summary", executor="process",
        max_workers=2, failure_mode="fallback",
    )
    base.update(overrides)
    return ExecutionPolicy(**base)


def _config(port, **overrides):
    base = dict(
        port=port, tenants=2, batches=2, rows_per_batch=100, dims=3,
        fits=2, epsilons=(0.5, 1.0), seed=123, total_epsilon=100.0,
    )
    base.update(overrides)
    return LoadgenConfig(**base)


def _serve_and_load(tmp_path, name, faults=None, **load_overrides):
    """Boot a background server, drive it with the loadgen, stop cleanly."""
    data = tmp_path / name
    app = ServeApp(data, Session(_policy(faults=faults)))
    http = ServeHTTP(app, port=0, snapshot_interval=0.2)
    thread = http.start_background()
    try:
        report = run_loadgen(_config(http.bound_port, **load_overrides))
    finally:
        http.request_stop()
        thread.join(20.0)
    assert not thread.is_alive()
    return data, report


def _digests_by_seed(report):
    return {
        fit["seed"]: fit["digest"]
        for tenant in report["tenants"]
        for fit in tenant["fits"]
    }


class TestLiveChaos:
    def test_chaos_run_matches_clean_run_and_ledger(self, tmp_path):
        clean_data, clean = _serve_and_load(tmp_path, "clean")
        chaos_data, chaos = _serve_and_load(tmp_path, "chaos", faults=_CHAOS_PLAN)

        # the clean run accepted everything and verifies strictly
        assert clean["totals"]["failures"] == 0
        assert clean["totals"]["fits_ok"] == 4
        result = verify_report(clean, clean_data, strict=True)
        assert result["ok"], result["violations"]

        # chaos may reject retryably/serverside, but never corrupts:
        # every accepted spend is in the ledger, every released digest is
        # the clean one
        result = verify_report(chaos, chaos_data)
        assert result["ok"], result["violations"]
        clean_digests = _digests_by_seed(clean)
        chaos_digests = _digests_by_seed(chaos)
        assert chaos_digests, "chaos run released no fits at all"
        for seed, digest in chaos_digests.items():
            assert digest == clean_digests[seed], (
                f"fit seed={seed} diverged under chaos"
            )

    def test_worker_crash_plan_is_neutral_in_results(self, tmp_path):
        """Fits run on the handler thread, not in pool workers, so a
        certain ``worker.crash`` plan fires nowhere: every model is
        released, bitwise equal to the clean run."""
        clean_data, clean = _serve_and_load(tmp_path, "c2-clean")
        chaos_data, chaos = _serve_and_load(
            tmp_path, "c2-chaos", faults="seed=11;worker.crash=1.0x2"
        )
        assert chaos["totals"]["failures"] == 0
        assert _digests_by_seed(chaos) == _digests_by_seed(clean)
        assert verify_report(chaos, chaos_data, strict=True)["ok"]


class TestKillMinusNine:
    """The CLI service, murdered mid-flight, must leave a replayable ledger."""

    @pytest.fixture
    def service(self, tmp_path):
        data = tmp_path / "data"
        port_file = tmp_path / "port.txt"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--data-dir", str(data), "--port", "0",
                "--port-file", str(port_file),
                "--executor", "process", "--max-workers", "2",
                "--failure-mode", "fallback",
                "--faults", "seed=7;worker.crash=0.4x2;io.transient=0.4x3;budget.crash=0.3x2",
                "--snapshot-interval", "0.2",
                "--telemetry", "summary",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
        )
        deadline = time.monotonic() + 30.0
        while not port_file.exists() and time.monotonic() < deadline:
            if proc.poll() is not None:
                out = proc.stdout.read().decode(errors="replace")
                pytest.fail(f"service exited during startup:\n{out}")
            time.sleep(0.05)
        assert port_file.exists(), "service never published its port"
        port = int(port_file.read_text())
        yield proc, data, port
        if proc.poll() is None:
            proc.kill()
        proc.wait(10)
        proc.stdout.close()

    def test_sigkill_leaves_no_underrecorded_spend(self, tmp_path, service):
        proc, data, port = service
        report = run_loadgen(
            _config(port, durable_ingest=True, total_epsilon=1000.0)
        )
        # chaos may produce non-retryable 500s (an injected budget.crash is
        # deliberately *not* retryable: its intent may already be durable);
        # accepted fits are what the ledger owes us
        assert report["totals"]["fits_ok"] > 0, json.dumps(report["tenants"])

        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(10)

        # verify from the corpse: journals replay conservatively, digests
        # recompute bitwise offline
        result = verify_report(report, data)
        assert result["ok"], result["violations"]
        assert result["digests_checked"] == report["totals"]["fits_ok"]

        # and a fresh service over the same directory restores it all:
        # every tenant, every spend, rows from the last durable snapshot
        with ServeApp(data, Session(_policy())) as app:
            assert app.restored_tenants == report["config"]["tenants"]
            for tenant_report in report["tenants"]:
                status = app.status(tenant_report["tenant"])
                accepted = tenant_report["accepted_epsilon"]
                assert status["budget"]["spent"] >= accepted - 1e-9
