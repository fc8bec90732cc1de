"""Tests for the baseline algorithms and registry."""

import numpy as np
import pytest

from repro.baselines import (
    DPME,
    FMBaseline,
    FilterPriority,
    NoPrivacy,
    ObjectivePerturbation,
    OutputPerturbation,
    Truncated,
    algorithm_names,
    make_algorithm,
)
from repro.baselines.dpme import build_joint_grid, fit_on_synthetic
from repro.baselines.histogram import COUNT_SENSITIVITY, histogram_counts
from repro.baselines.output_perturbation import gamma_sphere_noise
from repro.baselines.synthesize import SyntheticData, synthesize_from_counts
from repro.exceptions import ExperimentError, NotFittedError
from repro.privacy.laplace import laplace_noise
from repro.regression.linear import LinearRegression
from repro.regression.logistic import LogisticRegressionModel


@pytest.fixture(scope="module")
def task_data():
    rng = np.random.default_rng(0)
    d = 4
    X = rng.uniform(0, 1 / np.sqrt(d), size=(6000, d))
    w = np.array([0.9, -0.5, 0.3, 0.1])
    y_lin = np.clip(X @ w + rng.normal(0, 0.05, 6000), -1, 1)
    y_log = (X @ w + rng.normal(0, 0.1, 6000) > 0.2).astype(float)
    return X, y_lin, y_log


class TestRegistry:
    def test_all_expected_algorithms_registered(self):
        names = algorithm_names()
        for expected in ("fm", "dpme", "fp", "noprivacy", "truncated"):
            assert expected in names

    def test_unknown_name_raises(self):
        with pytest.raises(ExperimentError):
            make_algorithm("magic", "linear")

    def test_private_requires_epsilon(self):
        with pytest.raises(ExperimentError):
            make_algorithm("FM", "linear")

    def test_case_insensitive(self, task_data):
        X, y_lin, _ = task_data
        alg = make_algorithm("fm", "linear", epsilon=1.0, rng=0)
        assert alg.name == "FM"

    def test_invalid_task_rejected(self):
        with pytest.raises(ExperimentError):
            NoPrivacy(task="poisson")

    def test_kwargs_forwarded(self, task_data):
        X, y_lin, _ = task_data
        alg = make_algorithm(
            "FM", "linear", epsilon=1.0, rng=0, post_processing="regularize"
        )
        alg.fit(X, y_lin)
        assert alg._model.postprocess_.strategy == "regularize"


class TestNoPrivacy:
    def test_linear_matches_ols(self, task_data):
        X, y_lin, _ = task_data
        baseline = NoPrivacy(task="linear").fit(X, y_lin)
        ols = LinearRegression().fit(X, y_lin)
        np.testing.assert_allclose(baseline.coef_, ols.coef_)

    def test_score_is_mse_for_linear(self, task_data):
        X, y_lin, _ = task_data
        baseline = NoPrivacy(task="linear").fit(X, y_lin)
        assert baseline.score(X, y_lin) == pytest.approx(
            np.mean((y_lin - baseline.predict(X)) ** 2)
        )

    def test_logistic_predictions_are_labels(self, task_data):
        X, _, y_log = task_data
        baseline = NoPrivacy(task="logistic").fit(X, y_log)
        assert set(np.unique(baseline.predict(X))) <= {0.0, 1.0}

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            NoPrivacy(task="linear").predict(np.zeros((1, 2)))


class TestTruncated:
    def test_linear_equals_noprivacy(self, task_data):
        # The linear objective is exact, so Truncated == NoPrivacy (the
        # reason the paper omits it from linear panels).
        X, y_lin, _ = task_data
        truncated = Truncated(task="linear").fit(X, y_lin)
        plain = NoPrivacy(task="linear").fit(X, y_lin)
        np.testing.assert_allclose(truncated.coef_, plain.coef_, atol=1e-8)

    def test_logistic_close_to_exact_mle(self, task_data):
        # Lemma 3/4: the truncated optimum is near the exact optimum.
        X, _, y_log = task_data
        truncated = Truncated(task="logistic").fit(X, y_log)
        exact = NoPrivacy(task="logistic").fit(X, y_log)
        assert truncated.score(X, y_log) <= exact.score(X, y_log) + 0.02

    def test_chebyshev_variant(self, task_data):
        X, _, y_log = task_data
        model = Truncated(task="logistic", approximation="chebyshev").fit(X, y_log)
        assert model.score(X, y_log) < 0.5


class TestDPME:
    def test_fit_predict(self, task_data):
        X, y_lin, _ = task_data
        model = DPME(task="linear", epsilon=1.0, rng=0).fit(X, y_lin)
        assert model.coef_.shape == (4,)
        assert model.grid_ is not None
        assert model.synthetic_size_ > 0

    def test_logistic_labels(self, task_data):
        X, _, y_log = task_data
        model = DPME(task="logistic", epsilon=1.0, rng=0).fit(X, y_log)
        assert set(np.unique(model.predict(X))) <= {0.0, 1.0}

    def test_better_with_more_budget(self, task_data):
        X, y_lin, _ = task_data
        loose = np.mean([
            DPME(task="linear", epsilon=0.05, rng=s).fit(X, y_lin).score(X, y_lin)
            for s in range(5)
        ])
        tight = np.mean([
            DPME(task="linear", epsilon=10.0, rng=s).fit(X, y_lin).score(X, y_lin)
            for s in range(5)
        ])
        assert tight <= loose

    def test_weighted_mode_close_to_points_center(self, task_data):
        X, y_lin, _ = task_data
        a = DPME(task="linear", epsilon=5.0, rng=3, synthesis_mode="weighted").fit(X, y_lin)
        b = DPME(
            task="linear", epsilon=5.0, rng=3, synthesis_mode="points",
            placement="center",
        ).fit(X, y_lin)
        np.testing.assert_allclose(a.coef_, b.coef_, atol=1e-8)

    def test_grid_uses_binary_target_for_logistic(self, task_data):
        X, _, y_log = task_data
        model = DPME(task="logistic", epsilon=1.0, rng=0).fit(X, y_log)
        assert model.grid_.bins_per_dim[-1] == 2

    def test_empty_input_rejected(self):
        with pytest.raises(Exception):
            DPME(task="linear", epsilon=1.0).fit(np.zeros((0, 2)), np.zeros(0))


class TestBuildJointGrid:
    def test_linear_target_range(self):
        grid = build_joint_grid(1000, 3, "linear")
        assert grid.lower[-1] == -1.0 and grid.upper[-1] == 1.0

    def test_logistic_target_binary(self):
        grid = build_joint_grid(1000, 3, "logistic")
        assert grid.bins_per_dim[-1] == 2
        assert grid.lower[-1] == 0.0 and grid.upper[-1] == 1.0

    def test_feature_box(self):
        grid = build_joint_grid(1000, 4, "linear")
        np.testing.assert_allclose(grid.upper[:-1], 0.5)


class TestFitOnSynthetic:
    def test_zero_mass_returns_zero_parameter(self):
        synth = SyntheticData(X=np.zeros((1, 3)), y=np.zeros(1), weights=np.zeros(1))
        coef = fit_on_synthetic(synth, "linear", 3)
        np.testing.assert_array_equal(coef, 0.0)

    def test_single_class_logistic_returns_zero(self):
        synth = SyntheticData(
            X=np.random.default_rng(0).uniform(size=(10, 2)),
            y=np.ones(10),
            weights=np.ones(10),
        )
        coef = fit_on_synthetic(synth, "logistic", 2)
        np.testing.assert_array_equal(coef, 0.0)

    @pytest.mark.parametrize("task", ["linear", "logistic"])
    @pytest.mark.parametrize("epsilon", [0.1, 1.0])
    def test_unit_weights_fit_the_weighted_bits(self, task_data, task, epsilon):
        """Points-mode synthetic data fits unweighted; the coefficients are
        the weighted call's on the per-row reference rows, bit for bit."""
        X, y_lin, y_log = task_data
        y = y_lin if task == "linear" else y_log
        grid = build_joint_grid(X.shape[0], X.shape[1], task)
        gen = np.random.default_rng(17)
        counts = histogram_counts(grid, np.hstack([X, y[:, None]]))
        noisy = counts + laplace_noise(COUNT_SENSITIVITY, epsilon, size=counts.shape, rng=gen)
        synth = synthesize_from_counts(
            grid, noisy, mode="points", placement="uniform", rng=np.random.default_rng(3)
        )
        # The weighted call on the strided rows of the per-row path.
        rounded = np.round(np.maximum(noisy, 0.0)).astype(np.int64)
        occupied = np.nonzero(rounded)[0]
        rows = grid.sample_in_cells(
            np.repeat(occupied, rounded[occupied]), rng=np.random.default_rng(3)
        )
        ones = np.ones(rows.shape[0])
        if task == "linear":
            weighted = LinearRegression().fit(rows[:, :-1], rows[:, -1], sample_weight=ones)
        else:
            labels = (rows[:, -1] > 0.5).astype(float)
            weighted = LogisticRegressionModel(l2=1e-8).fit(
                rows[:, :-1], labels, sample_weight=ones
            )
        coef = fit_on_synthetic(synth, task, X.shape[1])
        assert coef.tobytes() == weighted.coef_.tobytes()


class TestFilterPriority:
    def test_fit_predict(self, task_data):
        X, y_lin, _ = task_data
        model = FilterPriority(task="linear", epsilon=1.0, rng=0).fit(X, y_lin)
        assert model.coef_.shape == (4,)
        assert model.published_cells_ > 0

    def test_output_size_bounded_by_priority(self, task_data):
        X, y_lin, _ = task_data
        model = FilterPriority(
            task="linear", epsilon=1.0, rng=0, output_factor=0.5
        ).fit(X, y_lin)
        # Published cells cannot exceed m = 0.5 * nonzero cells (priority cap).
        assert model.published_cells_ <= model.grid_.total_cells

    def test_sparser_output_than_dpme(self, task_data):
        # FP's whole point: it publishes far fewer cells than the grid has.
        X, y_lin, _ = task_data
        model = FilterPriority(task="linear", epsilon=1.0, rng=1).fit(X, y_lin)
        assert model.published_cells_ < model.grid_.total_cells

    def test_explicit_theta(self, task_data):
        X, y_lin, _ = task_data
        model = FilterPriority(task="linear", epsilon=1.0, rng=0, theta=5.0).fit(X, y_lin)
        assert np.all(np.isfinite(model.coef_))

    def test_rejects_bad_output_factor(self):
        with pytest.raises(ValueError):
            FilterPriority(task="linear", epsilon=1.0, output_factor=0.0)

    def test_logistic(self, task_data):
        X, _, y_log = task_data
        model = FilterPriority(task="logistic", epsilon=1.0, rng=0).fit(X, y_log)
        assert set(np.unique(model.predict(X))) <= {0.0, 1.0}


class TestOutputPerturbation:
    def test_fit_predict(self, task_data):
        X, y_lin, _ = task_data
        model = OutputPerturbation(task="linear", epsilon=1.0, rng=0).fit(X, y_lin)
        assert model.coef_.shape == (4,)
        assert model.sensitivity_ > 0

    def test_sensitivity_shrinks_with_n(self, task_data):
        X, y_lin, _ = task_data
        full = OutputPerturbation(task="linear", epsilon=1.0, rng=0).fit(X, y_lin)
        half = OutputPerturbation(task="linear", epsilon=1.0, rng=0).fit(
            X[:3000], y_lin[:3000]
        )
        assert full.sensitivity_ < half.sensitivity_

    def test_logistic(self, task_data):
        X, _, y_log = task_data
        model = OutputPerturbation(task="logistic", epsilon=1.0, rng=0).fit(X, y_log)
        assert set(np.unique(model.predict(X))) <= {0.0, 1.0}

    def test_rejects_bad_lambda(self):
        with pytest.raises(ValueError):
            OutputPerturbation(task="linear", epsilon=1.0, lam=0.0)

    def test_more_regularization_less_noise_more_bias(self, task_data):
        # With huge lambda the noise vanishes but the estimate collapses to
        # ~0: the bias/noise tension the paper criticizes.
        X, y_lin, _ = task_data
        model = OutputPerturbation(task="linear", epsilon=1.0, rng=0, lam=1e6).fit(X, y_lin)
        assert np.linalg.norm(model.coef_) < 0.05


class TestObjectivePerturbation:
    def test_fit_both_tasks(self, task_data):
        X, y_lin, y_log = task_data
        lin = ObjectivePerturbation(task="linear", epsilon=1.0, rng=0).fit(X, y_lin)
        log = ObjectivePerturbation(task="logistic", epsilon=1.0, rng=0).fit(X, y_log)
        assert lin.coef_.shape == log.coef_.shape == (4,)

    def test_budget_correction_recorded(self, task_data):
        X, _, y_log = task_data
        model = ObjectivePerturbation(task="logistic", epsilon=1.0, rng=0).fit(X, y_log)
        assert 0 < model.epsilon_prime_ <= 1.0

    def test_lambda_fallback_for_tiny_epsilon(self, task_data):
        # With tiny epsilon and tiny lambda, epsilon' <= 0 triggers the
        # fallback that raises lambda and halves the budget.
        X, _, y_log = task_data
        model = ObjectivePerturbation(
            task="logistic", epsilon=0.001, rng=0, lam=1e-9
        ).fit(X[:100], y_log[:100])
        assert model.epsilon_prime_ == pytest.approx(0.0005)
        assert model.lam_effective_ > 1e-9

    def test_rejects_bad_lambda(self):
        with pytest.raises(ValueError):
            ObjectivePerturbation(task="linear", epsilon=1.0, lam=-1.0)

    @pytest.mark.parametrize("n", [50, 6000])
    def test_linear_fit_matches_scaled_copy_bytes(self, task_data, n):
        # Reference: the closed form as first written, whose right-hand side
        # parsed as ((2.0 * X.T) @ y - b) / n — a scaled copy of X.
        X, y, _ = task_data
        X, y = X[:n], y[:n]
        model = ObjectivePerturbation(task="linear", epsilon=1.0, rng=3).fit(X, y)
        d = X.shape[1]
        L = 2.0 * (1.0 + model.projection_radius)
        b = gamma_sphere_noise(d, 2.0 * L, model.epsilon_prime_, rng=np.random.default_rng(3))
        lhs = 2.0 * X.T @ X / n + model.lam_effective_ * np.eye(d)
        rhs = (2.0 * X.T @ y - b) / n
        omega = np.linalg.solve(lhs, rhs)
        norm = float(np.linalg.norm(omega))
        if norm > model.projection_radius:
            omega = omega * (model.projection_radius / norm)
        assert model.coef_.tobytes() == omega.tobytes()


class TestFMBaseline:
    def test_wraps_estimators(self, task_data):
        X, y_lin, y_log = task_data
        lin = FMBaseline(task="linear", epsilon=2.0, rng=0).fit(X, y_lin)
        log = FMBaseline(task="logistic", epsilon=2.0, rng=0).fit(X, y_log)
        assert lin.score(X, y_lin) >= 0
        assert 0 <= log.score(X, y_log) <= 1

    def test_predictions_match_underlying_model(self, task_data):
        X, y_lin, _ = task_data
        wrapped = FMBaseline(task="linear", epsilon=2.0, rng=5).fit(X, y_lin)
        np.testing.assert_allclose(wrapped.predict(X), X @ wrapped.coef_)
