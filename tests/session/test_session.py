"""Session facade: owned state (pool, caches, datasets) and dispatch rules."""

import os

import pytest

from repro.exceptions import ExperimentError
from repro.faults import RetryPolicy
from repro.runtime import (
    PooledProcessExecutor,
    PooledThreadExecutor,
    SerialExecutor,
)
from repro.session import ExecutionPolicy, Session, figure_spec


def _worker_pid(_item) -> int:
    return os.getpid()


def _crash_worker(_item) -> None:
    os._exit(13)


def _scores(result):
    """Deterministic fields only (fit timings measure the host)."""
    return (
        result.algorithm,
        result.task,
        result.mean_score,
        result.std_score,
        result.cells,
        result.n_train,
    )


class TestExecutorOwnership:
    def test_serial_by_default(self):
        assert isinstance(Session(ExecutionPolicy()).executor(), SerialExecutor)

    def test_pooled_kinds(self):
        assert isinstance(
            Session(ExecutionPolicy(executor="thread")).executor(),
            PooledThreadExecutor,
        )
        assert isinstance(
            Session(ExecutionPolicy(executor="process")).executor(),
            PooledProcessExecutor,
        )

    def test_max_workers_threads_through(self):
        session = Session(ExecutionPolicy(executor="process", max_workers=3))
        assert session.executor().max_workers == 3

    def test_executor_instance_reused_across_calls(self):
        session = Session(ExecutionPolicy(executor="thread"))
        assert session.executor() is session.executor()

    def test_close_releases_and_rebuilds(self):
        with Session(ExecutionPolicy(executor="thread", max_workers=2)) as session:
            first = session.executor()
            first.map(_worker_pid, [0, 1, 2])
            assert first.pool is not None
            session.close()
            assert first.pool is None  # pool shut down
            assert session.executor() is not first  # lazily rebuilt

    def test_pooled_process_reuses_worker_pids(self):
        """The same OS processes serve successive map calls."""
        with PooledProcessExecutor(max_workers=2) as executor:
            first = set(executor.map(_worker_pid, list(range(4))))
            pool = executor.pool
            workers = set(pool._processes)
            second = set(executor.map(_worker_pid, list(range(4))))
            assert executor.pool is pool  # same pool object...
            assert set(pool._processes) == workers  # ...same worker processes
            # every observed PID belongs to the one persistent worker set
            # (scheduling may hand all chunks of a call to a subset)
            assert first and second and (first | second) <= workers

    def test_broken_pool_is_dropped_and_rebuilt(self):
        """A persistently dying worker fails the call (after the bounded
        self-healing retries) but not the session: the poisoned pool is
        dropped so the next map forks a fresh one."""
        from repro.exceptions import ExecutorBrokenError

        with PooledProcessExecutor(max_workers=2) as executor:
            with pytest.raises(ExecutorBrokenError):
                executor.map(_crash_worker, [0, 1, 2])
            assert executor.pool is None
            assert len(executor.map(_worker_pid, [0, 1, 2])) == 3

    def test_session_process_pool_survives_two_evaluates(
        self, tiny_dataset, tiny_preset
    ):
        """Acceptance: one pool serves >= 2 evaluate calls (identity + PIDs)."""
        policy = ExecutionPolicy(executor="process", tile_size=1, max_workers=2)
        with Session(policy) as session:
            executor = session.executor()
            a = session.evaluate(
                "FM", tiny_dataset, "linear", 5, 1.0, preset=tiny_preset, seed=1
            )
            pool = executor.pool
            assert pool is not None  # tiles actually dispatched to the pool
            pids = set(pool._processes)
            b = session.evaluate(
                "FM", tiny_dataset, "linear", 5, 0.5, preset=tiny_preset, seed=2
            )
            assert session.executor() is executor
            assert executor.pool is pool
            assert set(pool._processes) == pids
        assert a.cells == b.cells == tiny_preset.folds * tiny_preset.repetitions

    def test_kind_name_override_runs_under_the_session_policy(
        self, tiny_dataset, tiny_preset, monkeypatch
    ):
        """``executor="process"`` on one call builds its pool from the
        session's policy (width, retries, timeout, failure mode), not from
        the executor defaults, and closes it before returning."""
        seen = []
        original = PooledProcessExecutor.map

        def spy(self, work, items):
            seen.append(self)
            return original(self, work, items)

        monkeypatch.setattr(PooledProcessExecutor, "map", spy)
        policy = ExecutionPolicy(
            max_workers=1, max_retries=0, failure_mode="fallback", tile_timeout=5.0
        )
        with Session(policy) as session:
            session.evaluate(
                "DPME", tiny_dataset, "linear", 5, 1.0, preset=tiny_preset,
                executor="process",
            )
            assert isinstance(session.executor(), SerialExecutor)
        assert {executor.max_workers for executor in seen} == {1}
        assert {executor.retry for executor in seen} == {
            RetryPolicy(max_retries=0, tile_timeout=5.0, failure_mode="fallback")
        }
        assert all(executor.pool is None for executor in seen)


class TestOwnedCaches:
    def test_dataset_registry_caches_by_country_and_cap(self):
        session = Session(ExecutionPolicy(scale="smoke"))
        us = session.dataset("us")
        assert us is session.dataset("us")  # cached
        assert us.n == 4000  # smoke preset cap
        assert session.dataset("us", 500).n == 500
        with pytest.raises(ExperimentError, match="unknown country"):
            session.dataset("atlantis")

    def test_prepared_cache_persists_across_calls(self, tiny_dataset, tiny_preset):
        session = Session(ExecutionPolicy())
        cache = session.prepared_cache
        session.evaluate("FM", tiny_dataset, "linear", 5, 1.0, preset=tiny_preset)
        assert session.prepared_cache is cache
        session.clear_caches()
        assert session.prepared_cache is not cache

    def test_prepared_cache_releases_dead_datasets(self):
        """A session-lifetime cache must not pin transient datasets'
        prepared arrays forever: dead entries are pruned."""
        import gc

        from repro.data.census import load_us
        from repro.runtime import PreparedDataCache

        cache = PreparedDataCache()
        dataset = load_us(300)
        cache.task_arrays(dataset, "linear", 5)
        assert len(cache._tasks) == 1
        del dataset
        gc.collect()
        cache._prune()
        assert len(cache._tasks) == 0

    def test_policy_defaults_fill_protocol_args(self, tiny_dataset, tiny_preset):
        """seed/sampling_rate omitted per call come from the policy."""
        policy = ExecutionPolicy(seed=7, sampling_rate=0.5)
        from_policy = Session(policy).evaluate(
            "FM", tiny_dataset, "linear", 5, 1.0, preset=tiny_preset
        )
        explicit = Session(ExecutionPolicy()).evaluate(
            "FM", tiny_dataset, "linear", 5, 1.0,
            preset=tiny_preset, seed=7, sampling_rate=0.5,
        )
        assert _scores(from_policy) == _scores(explicit)


class TestDispatchRules:
    def test_unknown_figure(self, tiny_dataset):
        with pytest.raises(ExperimentError, match="unknown figure"):
            Session(ExecutionPolicy()).figure("figure12", tiny_dataset, "linear")

    def test_accuracy_figure_needs_task(self, tiny_dataset):
        with pytest.raises(ExperimentError, match="needs a task"):
            Session(ExecutionPolicy()).figure("figure4", tiny_dataset)

    def test_budget_figure_rejects_custom_values(self, tiny_dataset):
        with pytest.raises(ExperimentError, match="budget grid"):
            Session(ExecutionPolicy()).figure(
                "figure6", tiny_dataset, "linear", values=(1.0,)
            )

    def test_timing_specs_pin_logistic(self):
        for name in ("figure7", "figure8", "figure9"):
            assert figure_spec(name).fixed_task == "logistic"

    def test_session_kwarg_overrides(self):
        session = Session(ExecutionPolicy(), executor="thread", tile_size=2)
        assert session.policy.executor == "thread"
        assert session.policy.tile_size == 2

    def test_inapplicable_sampling_rate_warns_on_figures(self, tiny_dataset):
        session = Session(ExecutionPolicy(sampling_rate=0.5))
        with pytest.warns(UserWarning, match="sampling_rate"):
            # The warning fires before dispatch; the missing task then
            # aborts the run so the test stays fast.
            with pytest.raises(ExperimentError, match="needs a task"):
                session.figure("figure4", tiny_dataset, None)
