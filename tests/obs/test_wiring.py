"""Telemetry wiring: executors merge worker activity; sessions record;
and — the hard invariant — telemetry never changes a score."""

import json
import os

import pytest

from repro.data.census import load_us
from repro.exceptions import ExperimentError
from repro.experiments.config import ScalePreset
from repro.obs import (
    TraceRecorder,
    active_recorder,
    load_trace,
    summarize_trace,
    use_recorder,
)
from repro.runtime import PooledProcessExecutor, PooledThreadExecutor
from repro.session import ExecutionPolicy, Session


@pytest.fixture(scope="module")
def tiny_dataset():
    return load_us(700)


@pytest.fixture(scope="module")
def tiny_preset():
    return ScalePreset(name="tiny", max_records=450, folds=3, repetitions=2)


def _counting_work(item: int) -> int:
    """Module-level (picklable) work that reports through the recorder."""
    recorder = active_recorder()
    with recorder.span("test.work", item=item):
        recorder.counter("test.items")
        recorder.counter("test.value", item)
    return item * 2


class TestExecutorMerge:
    """Worker span/counter activity lands in the parent recorder exactly once."""

    def _assert_complete(self, recorder, items):
        summary = recorder.summary()
        assert summary["counters"]["test.items"] == len(items)
        assert summary["counters"]["test.value"] == sum(items)
        assert summary["spans"]["test.work"]["count"] == len(items)

    def test_pooled_thread_counters_complete(self):
        items = list(range(8))
        recorder = TraceRecorder(mode="trace")
        with use_recorder(recorder), PooledThreadExecutor(max_workers=4) as executor:
            results = executor.map(_counting_work, items)
        assert results == [v * 2 for v in items]
        self._assert_complete(recorder, items)
        assert recorder.summary()["counters"]["pool.created"] == 1

    def test_pooled_thread_reuse_counted(self):
        recorder = TraceRecorder(mode="summary")
        with use_recorder(recorder), PooledThreadExecutor(max_workers=2) as executor:
            executor.map(_counting_work, [1, 2])
            executor.map(_counting_work, [3, 4])
        counters = recorder.summary()["counters"]
        assert counters["pool.created"] == 1
        assert counters["pool.reused"] == 1

    def test_pooled_process_counters_complete(self):
        items = list(range(8))
        recorder = TraceRecorder(mode="trace")
        with use_recorder(recorder), PooledProcessExecutor(max_workers=2) as executor:
            results = executor.map(_counting_work, items)
        assert results == [v * 2 for v in items]
        self._assert_complete(recorder, items)
        counters = recorder.summary()["counters"]
        assert counters["pool.created"] == 1
        assert counters["process.pickled_bytes"] > 0
        gauges = recorder.summary()["gauges"]
        assert gauges["process.pickled_bytes_per_call"]["max"] > 0

    def test_closed_and_rebuilt_process_pool_counters_complete(self):
        items = list(range(6))
        recorder = TraceRecorder(mode="trace")
        executor = PooledProcessExecutor(max_workers=2)
        with use_recorder(recorder):
            results = []
            for half in (items[:3], items[3:]):
                with executor:
                    results += executor.map(_counting_work, half)
        assert results == [v * 2 for v in items]
        self._assert_complete(recorder, items)
        assert recorder.summary()["counters"]["pool.created"] == 2

    def test_worker_spans_reparent_under_anchor(self):
        recorder = TraceRecorder(mode="trace")
        with use_recorder(recorder), PooledProcessExecutor(max_workers=2) as executor:
            with recorder.span("anchor") as anchor:
                executor.map(_counting_work, list(range(4)))
        work_events = [e for e in recorder.events() if e["name"] == "test.work"]
        assert len(work_events) == 4
        assert all(e["parent"] == anchor.span_id for e in work_events)

    def test_summary_mode_ships_no_events(self):
        recorder = TraceRecorder(mode="summary")
        with use_recorder(recorder), PooledProcessExecutor(max_workers=2) as executor:
            executor.map(_counting_work, list(range(4)))
        assert recorder.events() == []
        assert recorder.summary()["spans"]["test.work"]["count"] == 4

    def test_off_mode_pays_nothing(self):
        # No active recorder: results are identical and unwrapped.
        with PooledProcessExecutor(max_workers=2) as executor:
            assert executor.map(_counting_work, list(range(4))) == [0, 2, 4, 6]


class TestSessionTelemetry:
    def test_session_records_spans_and_counters(self, tiny_dataset, tiny_preset):
        policy = ExecutionPolicy(telemetry="trace")
        with Session(policy) as session:
            session.evaluate("FM", tiny_dataset, "linear", 5, 1.0, preset=tiny_preset)
        summary = session.telemetry_summary()
        assert summary["spans"]["session.evaluate"]["count"] == 1
        assert summary["spans"]["plan.run"]["count"] >= 1
        assert summary["counters"]["runner.laplace_draws"] > 0

    def test_summary_accumulates_across_calls(self, tiny_dataset, tiny_preset):
        with Session(ExecutionPolicy(telemetry="summary")) as session:
            session.evaluate("FM", tiny_dataset, "linear", 5, 1.0, preset=tiny_preset)
            session.evaluate("FM", tiny_dataset, "linear", 5, 0.5, preset=tiny_preset)
        assert session.telemetry_summary()["spans"]["session.evaluate"]["count"] == 2

    def test_write_trace_roundtrips(self, tiny_dataset, tiny_preset, tmp_path):
        with Session(ExecutionPolicy(telemetry="trace")) as session:
            session.evaluate("FM", tiny_dataset, "linear", 5, 1.0, preset=tiny_preset)
            path = session.write_trace(tmp_path / "run.jsonl")
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert lines[0]["type"] == "meta"
        assert lines[0]["policy"]["telemetry"] == "trace"
        assert lines[-1]["type"] == "summary"
        names = {l.get("name") for l in lines}
        assert "session.evaluate" in names
        assert "plan.run" in names

    def test_summarize_splits_cell_fit_by_algorithm(
        self, tiny_dataset, tiny_preset, tmp_path
    ):
        # Seed 3: every DPME/FP Newton fit converges.  At the default seed
        # three hit the 100-iteration cap on up to ~167k synthetic rows,
        # which costs ~30 s and tests nothing more here.
        policy = ExecutionPolicy(
            telemetry="trace", executor="process", max_workers=2, seed=3
        )
        with Session(policy) as session:
            session.figure("figure6", tiny_dataset, "logistic", preset=tiny_preset)
            path = session.write_trace(tmp_path / "figure6.jsonl")
        rows = {}
        for line in summarize_trace(load_trace(path)).splitlines():
            fields = line.split()
            if fields and fields[0].startswith("cell.fit"):
                rows[fields[0]] = int(fields[1])
        split = {name: count for name, count in rows.items() if name != "cell.fit"}
        assert {"cell.fit[DPME]", "cell.fit[FP]"} <= set(split)
        assert sum(split.values()) == rows["cell.fit"] > 0

    def test_write_trace_requires_telemetry(self, tmp_path):
        with Session(ExecutionPolicy()) as session:
            with pytest.raises(ExperimentError, match="telemetry"):
                session.write_trace(tmp_path / "run.jsonl")

    def test_budget_ledger_events_recorded(self):
        from repro.privacy.budget import PrivacyBudget

        recorder = TraceRecorder(mode="summary")
        with use_recorder(recorder):
            budget = PrivacyBudget(1.0)
            budget.spend(0.25, note="histogram")
            budget.spend(0.5, note="refit")
        summary = recorder.summary()
        assert summary["counters"]["budget.spend_events"] == 2
        assert summary["gauges"]["budget.epsilon_spent"]["last"] == 0.75


class TestTelemetryNeutrality:
    """The hard invariant: identical scores at every telemetry level."""

    def _scores(self, telemetry, tiny_dataset, tiny_preset, executor, seed=7):
        policy = ExecutionPolicy(telemetry=telemetry, executor=executor, seed=seed)
        with Session(policy) as session:
            result = session.evaluate(
                "FM", tiny_dataset, "linear", 5, 1.0, preset=tiny_preset
            )
        return (result.mean_score, result.std_score, result.cells, result.n_train)

    @pytest.mark.parametrize("seed", [7, 29])
    def test_trace_is_bitwise_identical_to_off(self, seed, tiny_dataset, tiny_preset):
        off = self._scores("off", tiny_dataset, tiny_preset, "serial", seed)
        trace = self._scores("trace", tiny_dataset, tiny_preset, "serial", seed)
        summary = self._scores("summary", tiny_dataset, tiny_preset, "serial", seed)
        assert off == trace == summary

    def test_trace_neutral_under_process_pool(self, tiny_dataset, tiny_preset):
        if not hasattr(os, "fork"):  # pragma: no cover
            pytest.skip("fork-based pool unavailable")
        off = self._scores("off", tiny_dataset, tiny_preset, "process")
        trace = self._scores("trace", tiny_dataset, tiny_preset, "process")
        assert off == trace
