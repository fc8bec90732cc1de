"""Tests for the from-scratch logistic regression."""

import numpy as np
import pytest

from repro.exceptions import DataError, NotFittedError
from repro.regression.logistic import (
    LogisticRegressionModel,
    logistic_gradient,
    logistic_hessian,
    logistic_loss,
    sigmoid,
)
from repro.regression.solvers import GradientDescent, NewtonSolver


class TestSigmoid:
    def test_midpoint(self):
        assert sigmoid(np.array([0.0]))[0] == pytest.approx(0.5)

    def test_symmetry(self):
        z = np.linspace(-5, 5, 21)
        np.testing.assert_allclose(sigmoid(z) + sigmoid(-z), 1.0, atol=1e-12)

    def test_extreme_values_stable(self):
        out = sigmoid(np.array([-1000.0, 1000.0]))
        assert out[0] == pytest.approx(0.0, abs=1e-12)
        assert out[1] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.isfinite(out))

    def test_monotone(self):
        z = np.linspace(-10, 10, 101)
        assert np.all(np.diff(sigmoid(z)) > 0)


class TestLossDerivatives:
    def test_loss_matches_definition(self, rng):
        X = rng.normal(size=(20, 3))
        y = (rng.uniform(size=20) > 0.5).astype(float)
        w = rng.normal(size=3)
        z = X @ w
        direct = float(np.sum(np.log(1.0 + np.exp(z)) - y * z))
        assert logistic_loss(w, X, y) == pytest.approx(direct, rel=1e-10)

    def test_gradient_finite_difference(self, rng):
        X = rng.normal(size=(30, 3))
        y = (rng.uniform(size=30) > 0.5).astype(float)
        w = rng.normal(size=3) * 0.1
        grad = logistic_gradient(w, X, y)
        eps = 1e-6
        for k in range(3):
            e = np.zeros(3)
            e[k] = eps
            fd = (logistic_loss(w + e, X, y) - logistic_loss(w - e, X, y)) / (2 * eps)
            assert grad[k] == pytest.approx(fd, rel=1e-5)

    def test_hessian_finite_difference(self, rng):
        X = rng.normal(size=(30, 2))
        y = (rng.uniform(size=30) > 0.5).astype(float)
        w = rng.normal(size=2) * 0.1
        hess = logistic_hessian(w, X, y)
        eps = 1e-6
        for k in range(2):
            e = np.zeros(2)
            e[k] = eps
            fd = (logistic_gradient(w + e, X, y) - logistic_gradient(w - e, X, y)) / (2 * eps)
            np.testing.assert_allclose(hess[:, k], fd, rtol=1e-4, atol=1e-8)

    def test_hessian_positive_semidefinite(self, rng):
        X = rng.normal(size=(50, 4))
        y = (rng.uniform(size=50) > 0.5).astype(float)
        w = rng.normal(size=4)
        eigenvalues = np.linalg.eigvalsh(logistic_hessian(w, X, y))
        assert eigenvalues.min() >= -1e-10

    def test_l2_term(self, rng):
        X = rng.normal(size=(10, 2))
        y = (rng.uniform(size=10) > 0.5).astype(float)
        w = np.array([1.0, -2.0])
        plain = logistic_loss(w, X, y)
        regularized = logistic_loss(w, X, y, l2=2.0)
        assert regularized == pytest.approx(plain + 0.5 * 2.0 * 5.0)

    def test_sample_weight_scales_contributions(self, rng):
        X = rng.normal(size=(10, 2))
        y = (rng.uniform(size=10) > 0.5).astype(float)
        w = rng.normal(size=2)
        doubled = logistic_loss(w, X, y, sample_weight=np.full(10, 2.0))
        assert doubled == pytest.approx(2.0 * logistic_loss(w, X, y), rel=1e-12)


class TestLogisticModel:
    def test_separable_data_classified(self):
        X = np.array([[-1.0], [-0.5], [0.5], [1.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        model = LogisticRegressionModel().fit(X, y)
        np.testing.assert_array_equal(model.predict(X), y)

    def test_recovers_direction(self, rng):
        d = 3
        w_true = np.array([2.0, -1.0, 0.5])
        X = rng.normal(size=(20_000, d))
        probs = sigmoid(X @ w_true)
        y = (rng.uniform(size=20_000) < probs).astype(float)
        model = LogisticRegressionModel().fit(X, y)
        np.testing.assert_allclose(model.coef_, w_true, atol=0.1)

    def test_gd_and_newton_agree(self, rng):
        X = rng.normal(size=(500, 2))
        y = (sigmoid(X @ np.array([1.0, -1.0])) > rng.uniform(size=500)).astype(float)
        newton = LogisticRegressionModel(solver="newton").fit(X, y)
        gd = LogisticRegressionModel(solver="gd", max_iterations=5000).fit(X, y)
        np.testing.assert_allclose(newton.coef_, gd.coef_, atol=2e-2)

    def test_predict_proba_range(self, rng):
        X = rng.normal(size=(100, 2))
        y = (rng.uniform(size=100) > 0.5).astype(float)
        model = LogisticRegressionModel().fit(X, y)
        proba = model.predict_proba(X)
        assert np.all((proba >= 0) & (proba <= 1))

    def test_balanced_intercept_free_prediction(self, rng):
        # With symmetric X and balanced y, the score distribution straddles 0.
        X = rng.normal(size=(1000, 2))
        y = (X[:, 0] > 0).astype(float)
        model = LogisticRegressionModel().fit(X, y)
        assert model.score_misclassification(X, y) < 0.05

    def test_rejects_non_boolean_labels(self, rng):
        X = rng.normal(size=(10, 2))
        with pytest.raises(DataError):
            LogisticRegressionModel().fit(X, rng.uniform(size=10))

    def test_rejects_wrong_solver(self, rng):
        X = rng.normal(size=(10, 2))
        y = (rng.uniform(size=10) > 0.5).astype(float)
        with pytest.raises(ValueError):
            LogisticRegressionModel(solver="adam").fit(X, y)

    def test_predict_before_fit(self):
        with pytest.raises(NotFittedError):
            LogisticRegressionModel().predict(np.zeros((1, 2)))

    def test_l2_shrinks_solution(self, rng):
        X = rng.normal(size=(200, 2))
        y = (X[:, 0] > 0).astype(float)  # separable -> unregularized blows up
        small = LogisticRegressionModel(l2=0.01).fit(X, y)
        large = LogisticRegressionModel(l2=10.0).fit(X, y)
        assert np.linalg.norm(large.coef_) < np.linalg.norm(small.coef_)

    def test_sample_weight_equivalent_to_replication(self, rng):
        X = rng.normal(size=(30, 2))
        y = (rng.uniform(size=30) > 0.5).astype(float)
        weights = rng.integers(1, 3, size=30).astype(float)
        weighted = LogisticRegressionModel(l2=0.1).fit(X, y, sample_weight=weights)
        X_rep = np.repeat(X, weights.astype(int), axis=0)
        y_rep = np.repeat(y, weights.astype(int))
        replicated = LogisticRegressionModel(l2=0.1).fit(X_rep, y_rep)
        np.testing.assert_allclose(weighted.coef_, replicated.coef_, atol=1e-5)

    def test_rejects_bad_sample_weight(self, rng):
        X = rng.normal(size=(10, 2))
        y = (rng.uniform(size=10) > 0.5).astype(float)
        with pytest.raises(DataError):
            LogisticRegressionModel().fit(X, y, sample_weight=np.ones(9))
        with pytest.raises(DataError):
            LogisticRegressionModel().fit(X, y, sample_weight=-np.ones(10))

    def test_result_metadata(self, rng):
        X = rng.normal(size=(100, 2))
        y = (rng.uniform(size=100) > 0.5).astype(float)
        model = LogisticRegressionModel().fit(X, y)
        assert model.result_ is not None
        assert model.result_.converged


def _noisy_labels(seed, flip, n=3000, d=5):
    """A linear class boundary with a fraction ``flip`` of labels flipped."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 1.0 / np.sqrt(d), size=(n, d))
    z = X @ rng.normal(0.0, 4.0, size=d)
    y = (z > np.median(z)).astype(float)
    flipped = rng.uniform(size=n) < flip
    y[flipped] = 1.0 - y[flipped]
    return X, y


#: (seed, flip) of two label sets: one converges on full Newton steps, the
#: other makes the line search reject candidates on the way.  Those
#: rejections happen near the optimum, where the loss differences are at
#: rounding level, so their count depends on the BLAS kernel: this set
#: backtracks under the SkylakeX, Haswell and Sandybridge kernels alike
#: (14, 15 and 13 iterations for 35, 40 and 29 loss evaluations).
_DATASETS = {"full-steps": (2, 0.05), "backtracking": (296, 0.03)}


class TestSharedTermsOracle:
    """The model shares ``X @ w`` and ``sigmoid`` across loss, gradient and
    Hessian; its iterates must be the public functions' bit for bit."""

    @staticmethod
    def _reference(model, X, y, sample_weight, solver):
        """Run the model's solver over the public functions; also count
        the loss evaluations (each rejected line-search step adds one)."""
        args = (X, y, model.l2, sample_weight)
        evaluations = []

        def loss(w):
            evaluations.append(1)
            return logistic_loss(w, *args)

        grad = lambda w: logistic_gradient(w, *args)  # noqa: E731
        x0 = np.zeros(X.shape[1])
        if solver == "newton":
            hess = lambda w: logistic_hessian(w, *args)  # noqa: E731
            engine = NewtonSolver(max_iterations=model.max_iterations, tolerance=model.tolerance)
            return engine.minimize(loss, grad, hess, x0), len(evaluations)
        engine = GradientDescent(
            max_iterations=max(model.max_iterations, 500), tolerance=model.tolerance
        )
        return engine.minimize(loss, grad, x0), len(evaluations)

    @pytest.mark.parametrize("dataset", sorted(_DATASETS))
    @pytest.mark.parametrize("weights", ["none", "ones", "counts"])
    @pytest.mark.parametrize("layout", ["C", "F", "column-slice"])
    def test_newton_matches_public_functions(self, rng, dataset, weights, layout):
        X, y = _noisy_labels(*_DATASETS[dataset])
        if layout == "F":
            X = np.asfortranarray(X)
        elif layout == "column-slice":  # the strided view synthesis used to return
            X = np.hstack([X, y[:, None]])[:, :-1]
        sample_weight = {
            "none": None,
            "ones": np.ones(X.shape[0]),
            "counts": rng.integers(1, 6, size=X.shape[0]).astype(float),
        }[weights]
        model = LogisticRegressionModel(l2=1e-8).fit(X, y, sample_weight=sample_weight)
        reference, evaluations = self._reference(model, X, y, sample_weight, "newton")
        assert model.coef_.tobytes() == reference.x.tobytes()
        assert model.result_.iterations == reference.iterations > 2
        assert model.result_.fun == reference.fun
        if (dataset, weights, layout) == ("backtracking", "none", "C"):
            assert evaluations > reference.iterations + 1

    def test_gd_matches_public_functions(self):
        X, y = _noisy_labels(2, 0.05, n=400, d=2)
        model = LogisticRegressionModel(solver="gd", l2=1e-3).fit(X, y)
        reference, evaluations = self._reference(model, X, y, None, "gd")
        assert model.coef_.tobytes() == reference.x.tobytes()
        assert model.result_.iterations == reference.iterations
        assert evaluations > reference.iterations + 1  # Armijo backtracks


@pytest.fixture
def rng():
    return np.random.default_rng(8)
