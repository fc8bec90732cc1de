"""Domain gates memoized per prepared array pair in the prepared-data cache.

The FULL protocol's tiles all share the one read-only ``(X, y)`` pair that
``PreparedDataCache.task_arrays`` hands out, so a successful input gate on
it is recorded once per gate name and reused by every later tile.  A
failing gate must still raise on every call, and distinct gates must never
answer for each other.
"""

import numpy as np
import pytest

from repro.core.objectives import LinearRegressionObjective, LogisticRegressionObjective
from repro.data.datasets import RegressionTask
from repro.exceptions import DataError, DomainError
from repro.experiments.config import ScalePreset
from repro.obs import TraceRecorder, use_recorder
from repro.regression.linear import _validate_xy as _validate_linear_xy
from repro.regression.logistic import _validate_xy as _validate_logistic_xy
from repro.runtime import PreparedDataCache, plan_cells, run_plan
from repro.runtime.runner import _objective_gate
from repro.session import ExecutionPolicy, Session

FULL_TINY = ScalePreset(name="tiny-full", max_records=None, folds=3, repetitions=4)


def _counters(recorder) -> dict:
    return recorder.summary()["counters"]


def _read_only(*arrays):
    for a in arrays:
        a.setflags(write=False)
    return arrays


class _UnscaledDataset:
    """A table whose prepared features violate footnote 1 (``||x|| > 1``)."""

    n = 60

    def regression_task(self, task, dims):
        gen = np.random.default_rng(0)
        X = gen.uniform(0.0, 1.0, size=(self.n, 4))
        X[7] = 1.0  # norm 2
        y = gen.uniform(-1.0, 1.0, size=self.n)
        return RegressionTask(
            X=X, y=y, task=task, country="us", feature_names=("a", "b", "c", "d")
        )


class TestSweepMemo:
    def test_one_miss_then_one_hit_per_later_tile(self, us):
        session = Session(
            ExecutionPolicy(
                executor="serial", runtime="batched", tile_size=1, telemetry="summary"
            )
        )
        with session:
            session.budget_sweep(us, "linear", epsilons=(0.5, 2.0), preset=FULL_TINY)
            counters = _counters(session.recorder)
            # One array pair (the identity case), one gate (FM's objective).
            assert counters["prepared_cache.validation_misses"] == 1
            assert counters["prepared_cache.validation_hits"] == FULL_TINY.repetitions - 1
            # Same session cache, same arrays: every tile now hits.
            session.budget_sweep(us, "linear", epsilons=(0.5, 2.0), preset=FULL_TINY)
            counters = _counters(session.recorder)
            assert counters["prepared_cache.validation_misses"] == 1
            assert counters["prepared_cache.validation_hits"] == 2 * FULL_TINY.repetitions - 1


class TestFailuresNeverMemoized:
    def test_norm_violation_raises_on_every_call(self):
        cache = PreparedDataCache()
        dataset = _UnscaledDataset()
        preset = ScalePreset(name="tiny", max_records=None, folds=3, repetitions=2)
        for _ in range(3):
            plan = plan_cells(
                "FM", dataset, "linear", 14, [1.0], preset=preset, prepared_cache=cache
            )
            with pytest.raises(DomainError):
                run_plan(plan)

    def test_direct_failure_records_nothing(self):
        X, y = _read_only(np.full((5, 3), 0.9), np.zeros(5))
        check = LinearRegressionObjective(3).validate
        cache = PreparedDataCache()
        recorder = TraceRecorder(mode="summary")
        with use_recorder(recorder):
            for _ in range(3):
                with pytest.raises(DomainError):
                    cache.validated(X, y, "LinearRegressionObjective.validate:3", check)
        assert _counters(recorder)["prepared_cache.validation_misses"] == 3
        assert "prepared_cache.validation_hits" not in _counters(recorder)


class TestGateNames:
    def test_linear_pass_does_not_answer_for_logistic(self):
        gen = np.random.default_rng(1)
        X, y = _read_only(gen.uniform(0.0, 0.5, size=(20, 3)), gen.uniform(-1, 1, 20))
        linear, logistic = LinearRegressionObjective(3), LogisticRegressionObjective(3)
        assert _objective_gate(linear) != _objective_gate(logistic)
        cache = PreparedDataCache()
        cache.validated(X, y, _objective_gate(linear), linear.validate)
        with pytest.raises(DomainError):
            cache.validated(X, y, _objective_gate(logistic), logistic.validate)
        cache.validated(X, y, "_validate_linear_xy", _validate_linear_xy)
        with pytest.raises(DataError):
            cache.validated(X, y, "_validate_logistic_xy", _validate_logistic_xy)

    def test_writable_arrays_are_checked_every_time(self):
        X, y = np.full((4, 2), 0.1), np.zeros(4)
        calls = []
        cache = PreparedDataCache()
        for _ in range(3):
            cache.validated(X, y, "gate", lambda a, b: calls.append(1))
        assert len(calls) == 3


class TestReadOnlyTaskArrays:
    def test_writing_to_cached_task_arrays_raises(self, us):
        prepared = PreparedDataCache().task_arrays(us, "linear", 14)
        with pytest.raises(ValueError):
            prepared.X[0, 0] = 0.0
        with pytest.raises(ValueError):
            prepared.y[0] = 0.0
