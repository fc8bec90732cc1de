"""Tests for the repeated cross-validation harness (through the Session)."""

import numpy as np
import pytest

from repro.data.census import load_us
from repro.exceptions import ExperimentError
from repro.experiments.config import SMOKE, ScalePreset
from repro.session import ExecutionPolicy, Session


@pytest.fixture(scope="module")
def us():
    return load_us(6000)


@pytest.fixture
def session():
    with Session(ExecutionPolicy()) as s:
        yield s


class TestEvaluateAlgorithm:
    def test_basic_run(self, us, session):
        result = session.evaluate(
            "NoPrivacy", us, "linear", dims=5, epsilon=0.8, preset=SMOKE, seed=0
        )
        assert result.algorithm == "NoPrivacy"
        assert result.cells == SMOKE.folds * SMOKE.repetitions
        assert 0.0 <= result.mean_score < 1.0
        assert result.mean_fit_seconds > 0.0

    def test_train_size_accounts_for_folds(self, us, session):
        result = session.evaluate(
            "NoPrivacy", us, "linear", dims=5, epsilon=0.8, preset=SMOKE, seed=0
        )
        expected_n = SMOKE.cardinality(us.n)
        assert result.n_train == pytest.approx(expected_n * 2 / 3, abs=2)

    def test_seeded_reproducibility(self, us, session):
        a = session.evaluate("FM", us, "linear", dims=5, epsilon=0.8, preset=SMOKE, seed=3)
        b = session.evaluate("FM", us, "linear", dims=5, epsilon=0.8, preset=SMOKE, seed=3)
        assert a.mean_score == b.mean_score

    def test_different_seeds_differ(self, us, session):
        a = session.evaluate("FM", us, "linear", dims=5, epsilon=0.8, preset=SMOKE, seed=3)
        b = session.evaluate("FM", us, "linear", dims=5, epsilon=0.8, preset=SMOKE, seed=4)
        assert a.mean_score != b.mean_score

    def test_sampling_rate_shrinks_training(self, us, session):
        full = session.evaluate(
            "NoPrivacy", us, "linear", dims=5, epsilon=0.8, preset=SMOKE, seed=0
        )
        half = session.evaluate(
            "NoPrivacy", us, "linear", dims=5, epsilon=0.8, preset=SMOKE,
            sampling_rate=0.5, seed=0,
        )
        assert half.n_train < full.n_train

    def test_invalid_sampling_rate(self, us, session):
        with pytest.raises(ExperimentError):
            session.evaluate(
                "NoPrivacy", us, "linear", dims=5, epsilon=0.8,
                preset=SMOKE, sampling_rate=0.0,
            )

    def test_logistic_task(self, us, session):
        result = session.evaluate(
            "Truncated", us, "logistic", dims=5, epsilon=0.8, preset=SMOKE, seed=0
        )
        assert 0.0 <= result.mean_score <= 0.5

    def test_algorithm_kwargs_forwarded(self, us, session):
        result = session.evaluate(
            "FM", us, "linear", dims=5, epsilon=0.8, preset=SMOKE, seed=0,
            algorithm_kwargs={"tight_sensitivity": True},
        )
        assert result.mean_score >= 0.0

    def test_held_out_scoring(self, us, session):
        # NoPrivacy test MSE must be near train MSE but strictly computed on
        # held-out data: use a tiny preset so overfit would show.
        tiny = ScalePreset(name="tiny", max_records=60, folds=3, repetitions=1)
        result = session.evaluate(
            "NoPrivacy", us, "linear", dims=14, epsilon=0.8, preset=tiny, seed=0
        )
        # 13 features on 40 training rows overfits; held-out error must
        # exceed the *training* error of a comparable direct fit.
        assert result.mean_score > 0.0


class TestEvaluateAlgorithms:
    def test_returns_all(self, us, session):
        results = session.evaluate_panel(
            ["NoPrivacy", "FM"], us, "linear", dims=5, epsilon=0.8,
            preset=SMOKE, seed=0,
        )
        assert set(results) == {"NoPrivacy", "FM"}

    def test_noprivacy_at_least_as_good_on_average(self, us, session):
        results = session.evaluate_panel(
            ["NoPrivacy", "FM"], us, "linear", dims=5, epsilon=0.4,
            preset=SMOKE, seed=1,
        )
        assert results["NoPrivacy"].mean_score <= results["FM"].mean_score + 1e-6
