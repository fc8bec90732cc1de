"""Session teardown: close() and adopted resources must always release.

Regression suite for the serving layer's lifetime contract: a session
that owns a broken executor pool, or adopted journal-holding resources,
still tears everything down on ``close()`` — exactly once, LIFO, and
without ever raising (a teardown error must not mask the exception that
triggered a context-manager exit).
"""

import gc
import os
import weakref

import pytest

from repro.exceptions import ExecutorBrokenError
from repro.experiments.config import ScalePreset
from repro.faults import RetryPolicy, make_injector, use_injector
from repro.obs import make_recorder
from repro.runtime import PooledProcessExecutor, PooledThreadExecutor
from repro.session import ExecutionPolicy, Session


def _square(value):
    return value * value


def _crash(value):
    os._exit(13)


class _Closeable:
    def __init__(self, name, log, fail=False):
        self.name = name
        self.log = log
        self.fail = fail
        self.closed = 0

    def close(self):
        self.closed += 1
        self.log.append(self.name)
        if self.fail:
            raise RuntimeError(f"{self.name} refuses to die")


class TestAdoptedResources:
    def test_close_releases_adopted_lifo(self):
        session = Session(ExecutionPolicy(executor="serial"))
        log = []
        first = session.adopt(_Closeable("first", log))
        second = session.adopt(_Closeable("second", log))
        session.close()
        assert log == ["second", "first"]
        assert first.closed == second.closed == 1

    def test_close_is_idempotent_for_adopted(self):
        session = Session(ExecutionPolicy(executor="serial"))
        log = []
        resource = session.adopt(_Closeable("r", log))
        session.close()
        session.close()
        assert resource.closed == 1

    def test_one_failing_resource_does_not_block_the_rest(self):
        session = Session(
            ExecutionPolicy(executor="serial", telemetry="summary")
        )
        log = []
        survivor = session.adopt(_Closeable("survivor", log))
        session.adopt(_Closeable("bomb", log, fail=True))
        session.close()  # must not raise
        assert survivor.closed == 1
        assert log == ["bomb", "survivor"]
        counters = session.recorder.summary()["counters"]
        assert counters["session.close_errors"] == 1

    def test_context_exit_with_exception_still_tears_down(self):
        log = []
        with pytest.raises(ValueError, match="user error"):
            with Session(ExecutionPolicy(executor="serial")) as session:
                session.adopt(_Closeable("r", log))
                raise ValueError("user error")
        assert log == ["r"]

    def test_adopt_returns_the_resource(self):
        session = Session(ExecutionPolicy(executor="serial"))
        marker = object()
        class _R:
            close = staticmethod(lambda: None)
            payload = marker
        assert session.adopt(_R).payload is marker
        session.close()


class TestPreparedCacheRelease:
    def test_close_drops_prepared_arrays(self, tiny_dataset):
        # No subsampling, so the run shares one prepared array pair
        # through the session cache.
        preset = ScalePreset(name="whole", max_records=10_000, folds=3, repetitions=1)
        session = Session(ExecutionPolicy(executor="serial"))
        session.evaluate("FM", tiny_dataset, "linear", 5, 1.0, preset=preset)
        old_cache = session.prepared_cache
        prepared = old_cache.task_arrays(tiny_dataset, "linear", 5)
        arrays = weakref.ref(prepared.X)
        del prepared
        session.close()
        fresh = session.prepared_cache
        assert fresh is not old_cache
        assert not fresh._tasks and not fresh._moments
        del old_cache
        gc.collect()
        assert arrays() is None
        # Still usable: the next call refills the fresh cache.
        session.evaluate("FM", tiny_dataset, "linear", 5, 1.0, preset=preset)
        assert fresh._tasks


class TestBrokenExecutorTeardown:
    def test_close_after_executor_broken_error(self):
        """The serving layer's crash story: a pool whose workers died
        past the self-healing retries is still released by close()."""
        policy = ExecutionPolicy(
            executor="process", max_workers=2, max_retries=0,
            failure_mode="raise",
        )
        session = Session(policy)
        log = []
        session.adopt(_Closeable("journal", log))
        executor = session.executor()
        with pytest.raises(ExecutorBrokenError):
            executor.map(_crash, [0, 1, 2])
        session.close()  # must not raise, must not hang
        assert log == ["journal"]
        # the session stays usable: the next call rebuilds a fresh pool
        assert session.executor().map(_square, [2, 3]) == [4, 9]
        session.close()

    def test_close_counts_executor_close_failure(self):
        session = Session(
            ExecutionPolicy(executor="thread", telemetry="summary")
        )
        executor = session.executor()
        executor.map(_square, [1, 2])

        original_close = executor.close
        def exploding_close():
            original_close()
            raise RuntimeError("shutdown path bug")
        executor.close = exploding_close

        session.close()  # swallowed and counted
        counters = session.recorder.summary()["counters"]
        assert counters["session.close_errors"] == 1

    def test_pooled_thread_close_survives_broken_pool_shutdown(self):
        executor = PooledThreadExecutor(max_workers=2)
        executor.map(_square, [1, 2])
        pool = executor.pool
        original = pool.shutdown
        calls = []
        def flaky_shutdown(*args, **kwargs):
            calls.append(kwargs)
            if len(calls) == 1:
                raise RuntimeError("interpreter teardown race")
            return original(*args, **kwargs)
        pool.shutdown = flaky_shutdown
        executor.close()  # falls back to the non-waiting shutdown
        assert executor.pool is None
        assert len(calls) == 2

    def test_pooled_process_close_with_injected_crash_pending(self):
        """Close a process pool while a crash plan is still armed: the
        teardown path must not deadlock on dead workers."""
        executor = PooledProcessExecutor(max_workers=2, retry=RetryPolicy(max_retries=2))
        with use_injector(make_injector("seed=3;worker.crash=1.0x1")):
            assert executor.map(_square, [1, 2, 3]) == [1, 4, 9]
        executor.close()
        assert executor.pool is None
