"""Self-healing executors: injected chaos must never change a result.

Every test here asserts the same contract from a different angle: a map
that survives worker crashes, hangs, corrupt result envelopes or a
genuinely killed pool returns *exactly* what the fault-free map returns
— recovery is invisible in the results, visible only in telemetry.
"""

import os
import signal
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import ExecutorBrokenError
from repro.faults import FaultPlan, RetryPolicy, make_injector, use_injector
from repro.obs import make_recorder, use_recorder
from repro.runtime import (
    PooledProcessExecutor,
    PooledThreadExecutor,
    SerialExecutor,
    runner,
)
from repro.runtime.runner import _mapped


def _square(value):
    return value * value


def _boom(value):
    raise ValueError(f"genuine bug at {value}")


def _chaos(spec: str):
    """An injector context for one executor-level chaos scenario."""
    return use_injector(make_injector(spec))


class TestCrashRecovery:
    def test_pooled_process_recovers_from_certain_crash(self):
        items = list(range(6))
        with PooledProcessExecutor(max_workers=2) as executor:
            with _chaos("seed=2;worker.crash=1.0x1"):
                assert executor.map(_square, items) == [v * v for v in items]
            # the rebuilt pool keeps serving fault-free maps
            assert executor.map(_square, items) == [v * v for v in items]

    def test_payload_corruption_detected_and_retried(self):
        items = list(range(5))
        recorder = make_recorder("summary")
        with PooledProcessExecutor(max_workers=2) as executor:
            with use_recorder(recorder), _chaos("seed=4;payload.corrupt=1.0x1"):
                assert executor.map(_square, items) == [v * v for v in items]
        counters = recorder.summary()["counters"]
        assert counters.get("executor.payload_corruptions", 0) >= 1
        assert counters.get("executor.retries", 0) >= 1

    def test_hung_tile_times_out_and_retries(self):
        items = list(range(3))
        retry = RetryPolicy(tile_timeout=0.5, backoff_seconds=0.01)
        with PooledProcessExecutor(max_workers=2, retry=retry) as executor:
            with _chaos("seed=6;hang=30.0;tile.hang=1.0x1"):
                start = time.monotonic()
                assert executor.map(_square, items) == [v * v for v in items]
                # recovery must come from the timeout, not from waiting out the hang
                assert time.monotonic() - start < 25.0

    def test_real_killed_pool_worker_recovers(self):
        """Not an injected crash: SIGKILL a live worker process and assert
        the pooled executor rebuilds and completes the next map."""
        items = list(range(4))
        with PooledProcessExecutor(max_workers=2) as executor:
            assert executor.map(_square, items) == [v * v for v in items]
            victim = next(iter(executor.pool._processes))
            os.kill(victim, signal.SIGKILL)
            # Let the pool's manager thread see the dead worker first;
            # otherwise the surviving worker can finish the next map on
            # its own and the rebuild path never runs.
            deadline = time.monotonic() + 10.0
            while not executor.pool._broken and time.monotonic() < deadline:
                time.sleep(0.01)
            recorder = make_recorder("summary")
            with use_recorder(recorder):
                assert executor.map(_square, items) == [v * v for v in items]
            counters = recorder.summary()["counters"]
            assert counters.get("executor.pool_rebuilds", 0) >= 1


class TestRetryExhaustion:
    def test_raise_mode_surfaces_broken_error_with_progress(self):
        retry = RetryPolicy(max_retries=1, backoff_seconds=0.01)
        with PooledProcessExecutor(max_workers=2, retry=retry) as executor:
            with _chaos("seed=2;worker.crash=1.0x99"):
                with pytest.raises(ExecutorBrokenError) as excinfo:
                    executor.map(_square, list(range(4)))
        error = excinfo.value
        assert error.failure_mode == "raise"
        assert set(error.completed) | set(error.pending) == set(range(4))

    def test_fallback_mode_finishes_on_degraded_executor(self):
        retry = RetryPolicy(
            max_retries=0, backoff_seconds=0.01, failure_mode="fallback"
        )
        items = list(range(5))
        recorder = make_recorder("summary")
        with PooledProcessExecutor(max_workers=2, retry=retry) as executor:
            with use_recorder(recorder), _chaos("seed=2;worker.crash=1.0x99"):
                assert _mapped(executor, _square, items) == [v * v for v in items]
        counters = recorder.summary()["counters"]
        assert counters.get("executor.fallbacks", 0) >= 1

    def test_fallback_keeps_the_failed_executors_worker_count(self, monkeypatch):
        """The thread stage must use the broken executor's ``max_workers``,
        not the thread pool's ``min(8, cpu_count)`` default, and must be
        closed once the stage ends."""
        built = []

        class SpyThreadExecutor(PooledThreadExecutor):
            def __init__(self, max_workers=None):
                super().__init__(max_workers)
                built.append(self)

        monkeypatch.setattr(runner, "PooledThreadExecutor", SpyThreadExecutor)
        retry = RetryPolicy(
            max_retries=0, backoff_seconds=0.01, failure_mode="fallback"
        )
        items = list(range(5))
        with PooledProcessExecutor(max_workers=3, retry=retry) as executor:
            with _chaos("seed=2;worker.crash=1.0x99"):
                assert _mapped(executor, _square, items) == [v * v for v in items]
        assert [stage.max_workers for stage in built] == [3]
        assert built[0].pool is None

    def test_zero_retries_restores_fail_fast(self):
        retry = RetryPolicy(max_retries=0, backoff_seconds=0.01)
        with PooledProcessExecutor(max_workers=2, retry=retry) as executor:
            with _chaos("seed=2;worker.crash=1.0x99"):
                with pytest.raises(ExecutorBrokenError):
                    executor.map(_square, list(range(3)))


class TestGenuineExceptions:
    def test_work_exceptions_propagate_without_retry(self):
        """A deterministic bug must fail immediately — retrying it would
        only turn a wrong answer into a slow wrong answer."""
        recorder = make_recorder("summary")
        with use_recorder(recorder), PooledProcessExecutor(max_workers=2) as executor:
            with pytest.raises(ValueError, match="genuine bug"):
                executor.map(_boom, list(range(3)))
        assert recorder.summary()["counters"].get("executor.retries", 0) == 0


class TestChaosNeutralityProperty:
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        site=st.sampled_from(["worker.crash", "payload.corrupt"]),
        seed=st.integers(min_value=0, max_value=2**16),
        n_items=st.integers(min_value=1, max_value=6),
        probability=st.sampled_from([0.5, 1.0]),
    )
    def test_recovered_map_equals_serial_map(self, site, seed, n_items, probability):
        items = list(range(n_items))
        expected = SerialExecutor().map(_square, items)
        retry = RetryPolicy(max_retries=3, backoff_seconds=0.01)
        plan = FaultPlan.parse(f"seed={seed};{site}={probability}x1")
        with PooledProcessExecutor(max_workers=2, retry=retry) as executor:
            with use_injector(make_injector(plan)):
                assert executor.map(_square, items) == expected
