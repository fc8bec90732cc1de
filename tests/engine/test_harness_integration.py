"""Integration tests: FM's one-pass budget sweep and the budget figures."""

import numpy as np
import pytest

from repro.data.census import load_us
from repro.experiments.config import DEFAULT_DIMENSIONALITY, PRIVACY_BUDGETS, SMOKE
from repro.exceptions import ExperimentError
from repro.session import ExecutionPolicy, Session


@pytest.fixture(scope="module")
def us():
    return load_us(6000)


def _budget_sweep(us, dims, epsilons, policy=None, **kwargs):
    """One FM budget sweep in a fresh session."""
    with Session(policy or ExecutionPolicy()) as session:
        return session.budget_sweep(us, "linear", dims, epsilons, preset=SMOKE, **kwargs)


class TestEvaluateFmBudgetSweep:
    def test_returns_result_per_epsilon(self, us):
        results = _budget_sweep(us, 5, (0.4, 0.8, 3.2), seed=0)
        assert set(results) == {0.4, 0.8, 3.2}
        for result in results.values():
            assert result.algorithm == "FM"
            assert result.cells == SMOKE.folds * SMOKE.repetitions
            assert result.mean_fit_seconds > 0.0
            assert result.n_train > 0

    def test_seeded_reproducibility(self, us):
        a = _budget_sweep(us, 5, (0.8, 3.2), seed=3)
        b = _budget_sweep(us, 5, (0.8, 3.2), seed=3)
        assert a[0.8].mean_score == b[0.8].mean_score
        assert a[3.2].mean_score == b[3.2].mean_score

    def test_accuracy_improves_with_budget(self, us):
        results = _budget_sweep(us, 14, PRIVACY_BUDGETS, seed=6)
        assert results[3.2].mean_score < results[0.1].mean_score

    def test_statistically_consistent_with_loop_path(self, us):
        """Sweep and point evaluation are the same mechanism — scores must be comparable."""
        epsilon = 3.2
        engine_result = _budget_sweep(us, 5, (epsilon,), seed=0)[epsilon]
        loop_result = Session(ExecutionPolicy()).evaluate(
            "FM", us, "linear", dims=5, epsilon=epsilon, preset=SMOKE, seed=0
        )
        # Independent noise draws, identical distribution: same order of
        # magnitude, far from degenerate.
        assert engine_result.mean_score < 10 * max(loop_result.mean_score, 1e-3)
        assert loop_result.mean_score < 10 * max(engine_result.mean_score, 1e-3)

    def test_logistic_task(self, us):
        with Session(ExecutionPolicy()) as session:
            results = session.budget_sweep(
                us, "logistic", dims=5, epsilons=(0.8, 3.2), preset=SMOKE, seed=0
            )
        for result in results.values():
            assert 0.0 <= result.mean_score <= 1.0

    def test_invalid_args(self, us):
        with pytest.raises(ExperimentError):
            _budget_sweep(us, 5, ())
        with pytest.raises(ExperimentError):
            _budget_sweep(us, 5, (0.8,), sampling_rate=0.0)


def _figure(name, us, *args, **kwargs):
    """One registered figure in a fresh session at the smoke preset."""
    with Session(ExecutionPolicy()) as session:
        return session.figure(name, us, *args, preset=SMOKE, **kwargs)


class TestFigureDriversUseEngine:
    def test_figure6_fm_series_is_the_budget_sweep(self, us):
        result = _figure("figure6", us, "linear", seed=6)
        sweep = _budget_sweep(us, DEFAULT_DIMENSIONALITY, PRIVACY_BUDGETS, seed=6)
        assert result.metric_series("FM") == [
            sweep[epsilon].mean_score for epsilon in result.values
        ]

    def test_figure6_series_structure(self, us):
        result = _figure("figure6", us, "linear", seed=6)
        assert result.values == PRIVACY_BUDGETS
        assert list(result.series) == ["FM", "DPME", "FP", "NoPrivacy"]  # legend order
        assert all(len(v) == len(result.values) for v in result.series.values())

    def test_figure6_fm_series_from_engine_is_sane(self, us):
        result = _figure("figure6", us, "linear", seed=6)
        fm = dict(zip(result.values, result.metric_series("FM")))
        assert fm[3.2] < fm[0.1]

    def test_figure9_times_positive(self, us):
        result = _figure("figure9", us, seed=9)
        assert all(t > 0 for t in result.time_series("FM"))
