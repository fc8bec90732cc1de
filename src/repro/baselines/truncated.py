"""Truncated — the non-private truncated-objective baseline.

Section 7 includes ``Truncated`` "so as to investigate the error incurred by
the low-order approximation approach": it minimizes the Section-5 truncated
objective ``f_hat_D(w)`` exactly, with **no noise**.  The gap

* NoPrivacy -> Truncated measures the Taylor-truncation cost (Lemma 3/4),
* Truncated -> FM measures the Laplace-noise cost (Algorithm 1),

which is how Figures 4c-d/5c-d/6c-d decompose FM's total error.

For the linear task the objective is already an exact polynomial, so
``Truncated`` coincides with ``NoPrivacy`` (the paper omits it from the
linear panels for this reason); it is still constructible here for harness
uniformity and the equivalence is asserted by tests.
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from ..core.objectives import (
    LinearRegressionObjective,
    LogisticRegressionObjective,
)
from ..exceptions import DataError
from ..regression.logistic import sigmoid
from .base import BaselineRegressor, Task, register_algorithm

__all__ = ["Truncated"]


@register_algorithm("Truncated")
class Truncated(BaselineRegressor):
    """Exact minimizer of the noise-free truncated objective.

    Parameters
    ----------
    task:
        ``"linear"`` or ``"logistic"``.
    approximation:
        Approximation basis for the logistic objective (``"taylor"`` /
        ``"chebyshev"``), matching
        :class:`~repro.core.objectives.LogisticRegressionObjective`.
    """

    is_private = False

    def __init__(
        self,
        task: Task,
        approximation: Literal["taylor", "chebyshev"] = "taylor",
        radius: float = 1.0,
    ) -> None:
        super().__init__(task)
        self.approximation = approximation
        self.radius = float(radius)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "Truncated":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        if X.ndim != 2 or X.shape[0] == 0:
            raise DataError(f"X must be a non-empty 2-d matrix, got shape {X.shape}")
        d = X.shape[1]
        if self.task == "linear":
            objective = LinearRegressionObjective(d)
        else:
            objective = LogisticRegressionObjective(
                d, approximation=self.approximation, radius=self.radius
            )
        objective.validate(X, y)
        form = objective.aggregate_quadratic(X, y)
        # The noise-free M is PSD but may be singular (rank-deficient X);
        # the minimum-norm stationary point 2 M w = -alpha via pseudo-inverse
        # is the natural generalization of the closed-form solve.
        try:
            self.coef_ = form.minimize()
        except Exception:
            self.coef_ = np.linalg.pinv(2.0 * form.M) @ (-form.alpha)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        coef = self._require_fitted()
        X = np.asarray(X, dtype=float)
        scores = X @ coef
        if self.task == "linear":
            return scores
        return (sigmoid(scores) > 0.5).astype(float)
