"""Objective perturbation (Chaudhuri, Monteleoni & Sarwate, JMLR 2011).

The paper's closest intellectual neighbor (discussed at length in Sections
1-3): add a random *linear* term to a strongly-convex ERM objective,

    w_priv = argmin_w  (1/n) sum_i loss(t_i, w) + b^T w / n + (Lambda/2) ||w||^2,

with ``||b||`` drawn from ``Gamma(d, 2 L / epsilon')`` and a budget
correction ``epsilon' = epsilon - 2 log(1 + c / (n Lambda))`` accounting for
the curvature the noise hides (``c`` bounds each per-tuple loss's Hessian
eigenvalues).  When ``epsilon' <= 0`` the regularizer is raised to the
minimum value that leaves half the budget (the original paper's fallback).

The key contrast with FM that the paper draws: this method needs the loss
to be convex and doubly differentiable with *bounded derivatives per tuple*,
which standard boolean-label logistic regression satisfies only after
Chaudhuri et al.'s non-standard input modification, and which squared loss
satisfies only on a bounded parameter set.  We implement the mechanism
faithfully for the logistic loss (``L = 1``, ``c = 1/4``) and, for the
linear task, under the same ball-restricted Lipschitz reading used by
:mod:`~repro.baselines.output_perturbation` (``L = 2(1+R)``, ``c = 2``).
"""

from __future__ import annotations

import math

import numpy as np

from ..core.objectives import objective_for, scaled_cross_moment
from ..exceptions import DataError
from ..privacy.rng import RngLike, ensure_rng
from ..regression.logistic import (
    logistic_gradient,
    logistic_hessian,
    logistic_loss,
    sigmoid,
)
from ..regression.solvers import NewtonSolver
from .base import BaselineRegressor, Task, register_algorithm
from .output_perturbation import gamma_sphere_noise

__all__ = ["ObjectivePerturbation"]


@register_algorithm("ObjectivePerturbation")
class ObjectivePerturbation(BaselineRegressor):
    """Chaudhuri-style ERM with a random linear term in the objective.

    Parameters
    ----------
    task:
        ``"linear"`` or ``"logistic"``.
    epsilon:
        Privacy budget.
    lam:
        Regularization constant ``Lambda`` (averaged-objective scale).
    projection_radius:
        Ball radius for the linear task's Lipschitz constant.
    """

    is_private = True

    def __init__(
        self,
        task: Task,
        epsilon: float,
        rng: RngLike = None,
        lam: float = 0.01,
        projection_radius: float = 2.0,
    ) -> None:
        super().__init__(task)
        if lam <= 0.0 or not math.isfinite(lam):
            raise ValueError(f"lam must be positive, got {lam!r}")
        self.epsilon = float(epsilon)
        self.lam = float(lam)
        self.projection_radius = float(projection_radius)
        self._rng = ensure_rng(rng)
        self.epsilon_prime_: float | None = None
        self.lam_effective_: float | None = None

    def _constants(self) -> tuple[float, float]:
        """(Lipschitz L, smoothness c) for the current task."""
        if self.task == "logistic":
            return 1.0, 0.25
        return 2.0 * (1.0 + self.projection_radius), 2.0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "ObjectivePerturbation":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        if X.ndim != 2 or X.shape[0] == 0:
            raise DataError(f"X must be a non-empty 2-d matrix, got shape {X.shape}")
        n, d = X.shape
        # FM's input gate: the noise calibration assumes ||x|| <= 1 and the
        # task's target domain.
        objective_for(self.task, d).validate(X, y)
        L, c = self._constants()
        lam = self.lam
        epsilon_prime = self.epsilon - 2.0 * math.log(1.0 + c / (n * lam))
        if epsilon_prime <= 0.0:
            # Fallback of the original algorithm: raise Lambda until the
            # curvature correction consumes exactly half the budget.
            lam = c / (n * (math.exp(self.epsilon / 4.0) - 1.0))
            epsilon_prime = self.epsilon / 2.0
        self.epsilon_prime_ = epsilon_prime
        self.lam_effective_ = lam
        b = gamma_sphere_noise(d, 2.0 * L, epsilon_prime, rng=self._rng)

        if self.task == "logistic":
            solver = NewtonSolver(max_iterations=200)
            result = solver.minimize(
                lambda w: logistic_loss(w, X, y) / n + (b @ w) / n + 0.5 * lam * float(w @ w),
                lambda w: logistic_gradient(w, X, y) / n + b / n + lam * w,
                lambda w: logistic_hessian(w, X, y) / n + lam * np.eye(d),
                np.zeros(d),
            )
            self.coef_ = result.x
        else:
            # Averaged squared loss + linear noise + ridge is quadratic:
            #   (1/n)(w^T X^T X w - 2 y^T X w + y^T y) + b^T w / n
            #   + (lam/2) ||w||^2,
            # stationary at (2 X^T X / n + lam I) w = (2 X^T y - b) / n.
            # ``2.0 * X.T @ X`` stays a GEMM on a scaled copy: the unscaled
            # ``X.T @ X`` would route to SYRK and round differently.
            lhs = 2.0 * X.T @ X / n + lam * np.eye(d)
            rhs = (scaled_cross_moment(2.0, X, y) - b) / n
            omega = np.linalg.solve(lhs, rhs)
            # Projection onto the Lipschitz ball keeps the guarantee honest.
            norm = float(np.linalg.norm(omega))
            if norm > self.projection_radius:
                omega = omega * (self.projection_radius / norm)
            self.coef_ = omega
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        coef = self._require_fitted()
        X = np.asarray(X, dtype=float)
        scores = X @ coef
        if self.task == "linear":
            return scores
        return (sigmoid(scores) > 0.5).astype(float)
