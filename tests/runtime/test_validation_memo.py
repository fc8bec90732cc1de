"""Domain gates memoized per prepared array pair in the prepared-data cache.

The FULL protocol's tiles all share the one read-only ``(X, y)`` pair that
``PreparedDataCache.task_arrays`` hands out, so a successful input gate on
it is recorded once per gate name and reused by every later tile.  A
failing gate must still raise on every call, and distinct gates must never
answer for each other.
"""

import numpy as np
import pytest

from repro.baselines import algorithm_is_private, algorithm_names, canonical_algorithm_name
from repro.core import objectives
from repro.core.objectives import LinearRegressionObjective, LogisticRegressionObjective
from repro.data.datasets import RegressionTask
from repro.exceptions import DataError, DomainError
from repro.experiments.config import ScalePreset
from repro.obs import TraceRecorder, use_recorder
from repro.regression.linear import _validate_xy as _validate_linear_xy
from repro.regression.logistic import _validate_xy as _validate_logistic_xy
from repro.runtime import KERNEL_GENERIC, PreparedDataCache, plan_cells, run_plan
from repro.runtime.plan import CellPlan
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


class _CorruptDataset:
    """A table with one bad value in row 7: a NaN, inf or norm-2 row, or a
    NaN or out-of-range target (an off-{0, 1} label for logistic)."""

    n = 60

    def __init__(self, corruption: str) -> None:
        self.corruption = corruption

    def regression_task(self, task, dims):
        gen = np.random.default_rng(0)
        X = gen.uniform(-0.4, 0.4, size=(self.n, 4))
        if task == "linear":
            y = gen.uniform(-1.0, 1.0, size=self.n)
        else:
            y = (gen.uniform(size=self.n) < 0.5).astype(float)
        rows = {"nan": [np.nan, 0, 0, 0], "inf": [np.inf, 0, 0, 0], "norm": 1.0}
        if self.corruption in rows:
            X[7] = rows[self.corruption]
        else:
            y[7] = {"nan-target": np.nan, "range": 1.5 if task == "linear" else 0.5}[
                self.corruption
            ]
        return RegressionTask(
            X=X, y=y, task=task, country="us", feature_names=("a", "b", "c", "d")
        )


#: Every private algorithm refuses what FM's domain gate refuses: its noise
#: is calibrated for ``||x|| <= 1`` and the task's target domain.  Truncated
#: shares FM's gate; NoPrivacy is not private, so it (like its per-cell fit)
#: accepts out-of-domain values and refuses only non-finite data.
_PRIVATE = [
    canonical_algorithm_name(name) for name in algorithm_names() if algorithm_is_private(name)
]
_NON_FINITE = ("nan", "inf", "nan-target")
_REFUSED = [
    (algorithm, task, corruption)
    for algorithm in [*_PRIVATE, "Truncated", "NoPrivacy"]
    for task in ("linear", "logistic")
    for corruption in ("nan", "inf", "norm", "nan-target", "range")
    if algorithm != "NoPrivacy" or corruption in _NON_FINITE
]
#: The algorithms the batched runtime runs in its own kernels, behind the
#: plan-level gate; the rest fit fold by fold on both runtimes.
_KERNEL_ALGORITHMS = ("FM", "Truncated", "NoPrivacy")


class TestPlanGateRefusesBadData:
    """Both runtimes refuse what the per-cell fit refuses, with the same
    exception class and before any noise is drawn, whether or not a
    prepared-data cache memoizes the gate."""

    @pytest.mark.parametrize("cached", [False, True], ids=["no-cache", "cache"])
    @pytest.mark.parametrize("algorithm, task, corruption", _REFUSED)
    def test_refused_before_noise(self, algorithm, task, corruption, cached, monkeypatch):
        streams = []
        substream = CellPlan.substream

        def tracked(plan, fold):
            gen = substream(plan, fold)
            streams.append((gen, gen.bit_generator.state))
            return gen

        monkeypatch.setattr(CellPlan, "substream", tracked)
        preset = ScalePreset(name="tiny", max_records=None, folds=3, repetitions=2)
        refused = {}
        for mode in ("batched", "percell"):
            plan = plan_cells(
                algorithm, _CorruptDataset(corruption), task, 4, [1.0],
                preset=preset, prepared_cache=PreparedDataCache() if cached else None,
            )
            if algorithm in _KERNEL_ALGORITHMS:
                assert plan.kernel != KERNEL_GENERIC
            with pytest.raises((DataError, DomainError)) as error:
                run_plan(plan, mode=mode)
            refused[mode] = type(error.value)
            if mode == "batched" and algorithm in _KERNEL_ALGORITHMS:
                assert streams == []  # the plan gate runs before any stream exists
        assert refused["batched"] is refused["percell"]
        # A per-fold fit derives its stream first, but draws nothing from it.
        assert all(gen.bit_generator.state == state for gen, state in streams)


class TestFoldBuildTrustsGate:
    """The fold build aggregates the gathered rows without re-scanning them:
    the plan-level gate is the only finiteness pass, once per prepared array
    pair, however many folds there are."""

    @pytest.mark.parametrize("algorithm", ["FM", "Truncated"])
    @pytest.mark.parametrize("task", ["linear", "logistic"])
    def test_matrix_checks_do_not_grow_with_folds(self, us, algorithm, task, monkeypatch):
        calls = []
        check = objectives._validate_matrix
        monkeypatch.setattr(
            objectives, "_validate_matrix", lambda X, dim: calls.append(X.shape) or check(X, dim)
        )
        counts = {}
        for folds in (3, 6):
            calls.clear()
            # max_records < n: every repetition subsamples its own array pair.
            preset = ScalePreset(name="tiny", max_records=600, folds=folds, repetitions=2)
            plan = plan_cells(algorithm, us, task, 5, [0.5, 2.0], preset=preset)
            run_plan(plan, mode="batched")
            counts[folds] = len(calls)
        # One check per repetition's whole array pair, never one per fold.
        assert counts == {3: 2, 6: 2}
        assert {rows for rows, _ in calls} == {600}
