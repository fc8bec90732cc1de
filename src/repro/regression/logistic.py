"""Non-private logistic regression (the NoPrivacy baseline for Definition 2).

Implements the standard maximum-likelihood logistic model

    w* = argmin_w sum_i [ log(1 + exp(x_i^T w)) - y_i x_i^T w ]

via damped Newton (default) or gradient descent, both from
:mod:`repro.regression.solvers`.  All loss computations are numerically
stable: ``log(1 + exp(z))`` goes through ``logaddexp`` and the sigmoid is
evaluated piecewise to avoid overflow on ``|z|`` large — the paper's
normalized features keep ``|x^T w|`` small, but noisy baselines (DPME/FP
synthetic data) can push iterates far out.

An optional L2 term makes the loss strongly convex, guaranteeing a unique
optimum even on separable data (otherwise Newton drifts towards infinite
weights and stops on the gradient tolerance).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, Optional

import numpy as np

from ..exceptions import DataError, NotFittedError
from .metrics import misclassification_rate
from .solvers import GradientDescent, NewtonSolver, SolverResult

__all__ = [
    "sigmoid",
    "logistic_loss",
    "logistic_gradient",
    "logistic_hessian",
    "LogisticRegressionModel",
]


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function ``1 / (1 + exp(-z))``."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    exp_z = np.exp(z[~positive])
    out[~positive] = exp_z / (1.0 + exp_z)
    return out


def logistic_loss(
    omega: np.ndarray,
    X: np.ndarray,
    y: np.ndarray,
    l2: float = 0.0,
    sample_weight: np.ndarray | None = None,
) -> float:
    """Definition-2 cost ``sum_i log(1 + exp(x_i^T w)) - y_i x_i^T w`` (+ L2).

    Note the *sum* (not mean) convention, matching the paper's
    ``f_D(w) = sum_i f(t_i, w)``.  ``sample_weight`` weights each tuple's
    contribution (the histogram baselines' ``weighted`` synthesis mode
    regresses on count-weighted cell centers).
    """
    return _loss_term(X @ omega, omega, y, l2, sample_weight)


def logistic_gradient(
    omega: np.ndarray,
    X: np.ndarray,
    y: np.ndarray,
    l2: float = 0.0,
    sample_weight: np.ndarray | None = None,
) -> np.ndarray:
    """Gradient ``X^T (sigmoid(Xw) - y)`` (+ L2 term)."""
    return _gradient_term(sigmoid(X @ omega), omega, X, y, l2, sample_weight)


def logistic_hessian(
    omega: np.ndarray,
    X: np.ndarray,
    y: np.ndarray,
    l2: float = 0.0,
    sample_weight: np.ndarray | None = None,
) -> np.ndarray:
    """Hessian ``X^T diag(p(1-p)) X`` (+ L2 term); ``y`` unused but kept for symmetry."""
    return _hessian_term(sigmoid(X @ omega), X, l2, sample_weight)


# The three terms from the scores ``z = X @ w`` or the probabilities
# ``p = sigmoid(z)``, so one fit can share both across loss, gradient and
# Hessian at an iterate (see _SharedTerms).
def _loss_term(z, omega, y, l2, sample_weight) -> float:
    per_tuple = np.logaddexp(0.0, z) - y * z
    if sample_weight is not None:
        per_tuple = per_tuple * sample_weight
    loss = float(np.sum(per_tuple))
    if l2:
        loss += 0.5 * l2 * float(omega @ omega)
    return loss


def _gradient_term(p, omega, X, y, l2, sample_weight) -> np.ndarray:
    residual = p - y
    if sample_weight is not None:
        residual = residual * sample_weight
    grad = X.T @ residual
    if l2:
        grad = grad + l2 * omega
    return grad


def _hessian_term(p, X, l2, sample_weight, out=None) -> np.ndarray:
    weights = p * (1.0 - p)
    if sample_weight is not None:
        weights = weights * sample_weight
    hess = np.multiply(X, weights[:, None], out=out).T @ X
    if l2:
        hess = hess + l2 * np.eye(X.shape[1])
    return hess


class _SharedTerms:
    """Loss, gradient and Hessian of one fit, sharing work per iterate.

    ``z = X @ w`` is computed once per distinct iterate (the line search's
    accepted point is the next gradient's and Hessian's) and ``sigmoid(z)``
    once per iterate; the Hessian's weighted design reuses one scratch
    buffer.  Every value is the public function's, bit for bit.
    """

    def __init__(self, X, y, l2, sample_weight) -> None:
        self.X, self.y, self.l2, self.sample_weight = X, y, l2, sample_weight
        self._key: bytes | None = None
        self._z: np.ndarray | None = None
        self._p: np.ndarray | None = None
        self._scratch: np.ndarray | None = None

    def _scores(self, omega: np.ndarray) -> np.ndarray:
        key = omega.tobytes()
        if key != self._key:
            self._key, self._z, self._p = key, self.X @ omega, None
        return self._z

    def _probabilities(self, omega: np.ndarray) -> np.ndarray:
        z = self._scores(omega)
        if self._p is None:
            self._p = sigmoid(z)
        return self._p

    def loss(self, omega: np.ndarray) -> float:
        return _loss_term(self._scores(omega), omega, self.y, self.l2, self.sample_weight)

    def gradient(self, omega: np.ndarray) -> np.ndarray:
        return _gradient_term(
            self._probabilities(omega), omega, self.X, self.y, self.l2, self.sample_weight
        )

    def hessian(self, omega: np.ndarray) -> np.ndarray:
        if self._scratch is None:
            self._scratch = np.empty_like(self.X)
        return _hessian_term(
            self._probabilities(omega), self.X, self.l2, self.sample_weight, self._scratch
        )


def _validate_xy(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if X.ndim != 2:
        raise DataError(f"X must be 2-d, got ndim={X.ndim}")
    if X.shape[0] != y.shape[0]:
        raise DataError(f"X has {X.shape[0]} rows but y has {y.shape[0]} entries")
    if X.shape[0] == 0:
        raise DataError("cannot fit on an empty dataset")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise DataError("X and y must be finite")
    unique = np.unique(y)
    if not np.all(np.isin(unique, (0.0, 1.0))):
        raise DataError(
            f"logistic regression requires boolean labels in {{0, 1}}, "
            f"got values {unique[:5]!r}"
        )
    return X, y


@dataclass
class LogisticRegressionModel:
    """Standard binary logistic regression fitted by Newton or GD.

    Parameters
    ----------
    solver:
        ``"newton"`` (default, quadratic convergence) or ``"gd"``.
    l2:
        Optional L2 regularization strength (0 = the paper's plain MLE).
    max_iterations, tolerance:
        Forwarded to the underlying solver.

    Examples
    --------
    >>> X = np.array([[-1.0], [-0.5], [0.5], [1.0]])
    >>> y = np.array([0.0, 0.0, 1.0, 1.0])
    >>> model = LogisticRegressionModel().fit(X, y)
    >>> bool(model.predict(np.array([[2.0]]))[0] == 1.0)
    True
    """

    solver: Literal["newton", "gd"] = "newton"
    l2: float = 0.0
    max_iterations: int = 100
    tolerance: float = 1e-8
    coef_: Optional[np.ndarray] = field(default=None, init=False)
    result_: Optional[SolverResult] = field(default=None, init=False)

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        sample_weight: np.ndarray | None = None,
    ) -> "LogisticRegressionModel":
        """Fit the model on boolean labels ``y`` (optionally weighted)."""
        X, y = _validate_xy(X, y)
        if sample_weight is not None:
            sample_weight = np.asarray(sample_weight, dtype=float).ravel()
            if sample_weight.shape[0] != X.shape[0]:
                raise DataError(
                    f"sample_weight has length {sample_weight.shape[0]}, "
                    f"expected {X.shape[0]}"
                )
            if not np.all(np.isfinite(sample_weight)) or np.any(sample_weight < 0):
                raise DataError("sample_weight must be finite and non-negative")
        x0 = np.zeros(X.shape[1])
        terms = _SharedTerms(X, y, self.l2, sample_weight)
        if self.solver == "newton":
            engine = NewtonSolver(max_iterations=self.max_iterations, tolerance=self.tolerance)
            result = engine.minimize(terms.loss, terms.gradient, terms.hessian, x0)
        elif self.solver == "gd":
            engine = GradientDescent(
                max_iterations=max(self.max_iterations, 500), tolerance=self.tolerance
            )
            result = engine.minimize(terms.loss, terms.gradient, x0)
        else:
            raise ValueError(f"unknown solver {self.solver!r}; use 'newton' or 'gd'")
        self.coef_ = result.x
        self.result_ = result
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Raw scores ``x^T w``."""
        if self.coef_ is None:
            raise NotFittedError(type(self).__name__)
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.coef_.shape[0]:
            raise DataError(
                f"X must be 2-d with {self.coef_.shape[0]} columns, got shape {X.shape}"
            )
        return X @ self.coef_

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Probability ``Pr[y = 1 | x] = exp(x^T w) / (1 + exp(x^T w))``."""
        return sigmoid(self.decision_function(X))

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Hard labels under the paper's 0.5 probability threshold."""
        return (self.predict_proba(X) > 0.5).astype(float)

    def score_misclassification(self, X: np.ndarray, y: np.ndarray) -> float:
        """Misclassification rate on ``(X, y)`` — the paper's logistic metric."""
        return misclassification_rate(y, self.predict(X))
