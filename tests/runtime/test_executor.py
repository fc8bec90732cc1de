"""Executors must change where cells run, never what they compute."""

import multiprocessing

import pytest

from repro.exceptions import ExperimentError
from repro.faults import RetryPolicy
from repro.runtime import (
    EXECUTOR_KINDS,
    PooledProcessExecutor,
    PooledThreadExecutor,
    SerialExecutor,
    get_executor,
    make_executor,
    plan_cells,
    run_plan,
    runner,
)
from repro.runtime import executor as executor_module


class TestGetExecutor:
    def test_by_name(self):
        assert isinstance(get_executor("serial"), SerialExecutor)
        assert isinstance(get_executor("thread"), PooledThreadExecutor)
        assert isinstance(get_executor("process"), PooledProcessExecutor)

    def test_passthrough(self):
        executor = PooledThreadExecutor(max_workers=2)
        assert get_executor(executor) is executor

    def test_unknown_rejected(self):
        with pytest.raises(ExperimentError):
            get_executor("gpu")

    def test_factory_carries_width_and_retry(self):
        retry = RetryPolicy(max_retries=0, tile_timeout=5.0, failure_mode="fallback")
        thread = make_executor("thread", 3, retry)
        process = make_executor("process", 3, retry)
        assert thread.max_workers == 3
        assert (process.max_workers, process.retry) == (3, retry)
        assert EXECUTOR_KINDS == ("serial", "thread", "process")


class TestExecutorMap:
    def test_serial_order(self):
        assert SerialExecutor().map(lambda v: v * 2, [1, 2, 3]) == [2, 4, 6]

    def test_thread_preserves_order(self):
        items = list(range(32))
        with PooledThreadExecutor(max_workers=4) as executor:
            assert executor.map(lambda v: v * v, items) == [v * v for v in items]

    def test_process_preserves_order(self):
        items = list(range(8))
        with PooledProcessExecutor(max_workers=2) as executor:
            assert executor.map(_square, items) == [v * v for v in items]

    def test_single_item_short_circuits(self):
        executor = PooledProcessExecutor()
        assert executor.map(lambda v: v + 1, [41]) == [42]
        assert executor.pool is None  # never forked


def _square(v):
    return v * v


@pytest.fixture
def work_dir(tmp_path, monkeypatch):
    """Route the process executor's work files into a listable directory."""
    monkeypatch.setattr(executor_module, "_WORK_DIR", str(tmp_path))
    return tmp_path


def _assert_released(work_dir):
    """No pool worker survives the run, and no work file is left behind."""
    assert multiprocessing.active_children() == []
    assert list(work_dir.glob("repro-work-*")) == []


class TestExecutorScoreParity:
    @pytest.fixture(scope="class")
    def plan(self, us, tiny_preset):
        return plan_cells(
            "DPME", us, "linear", dims=5, epsilons=[0.8], preset=tiny_preset, seed=2
        )

    @pytest.mark.parametrize("kind", ["thread", "process"])
    def test_matches_serial_and_closes_its_pool(self, plan, kind, work_dir):
        serial = run_plan(plan, mode="percell", executor="serial")
        pooled = run_plan(plan, mode="percell", executor=kind)
        assert serial.scores[0.8] == pooled.scores[0.8]
        _assert_released(work_dir)

    @pytest.mark.parametrize("kind", ["thread", "process"])
    def test_raising_run_closes_its_pool(self, plan, kind, work_dir, monkeypatch):
        def broken_fold(plan, index):
            raise ValueError(f"genuine bug in fold {index}")

        monkeypatch.setattr(runner, "_run_fold", broken_fold)
        with pytest.raises(ValueError, match="genuine bug"):
            run_plan(plan, mode="percell", executor=kind)
        _assert_released(work_dir)

    def test_passed_in_executor_stays_open(self, plan):
        with PooledProcessExecutor(max_workers=2) as executor:
            run_plan(plan, mode="percell", executor=executor)
            assert executor.pool is not None
