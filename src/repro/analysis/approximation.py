"""Empirical validation of the Lemma 3/4 approximation-error bounds.

Section 5.2 proves that truncating the logistic objective's Taylor series at
degree 2 costs at most a small *data-independent* constant per tuple in
averaged objective value: ``(e^2 - e) / (6 (1 + e)^3) ~= 0.015``.

:func:`measure_truncation_error` evaluates the realized gap

    (1/n) * [ f_tilde_D(w_hat) - f_tilde_D(w_tilde) ]

on concrete datasets — ``w_tilde`` from exact logistic MLE, ``w_hat`` from
the truncated objective — and compares it against the bound.  The test
suite asserts the bound holds for the paper's working regime (expansion
point 0, scores within the remainder interval ``|x^T w| <= 1``); the
Figure-3 bench prints the measured gaps next to the 0.015 constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.objectives import LogisticRegressionObjective
from ..core.taylor import (
    logistic_truncation_error_bound,
    logistic_truncation_error_bound_two_sided,
)
from ..exceptions import DataError
from ..regression.logistic import LogisticRegressionModel
from ..regression.solvers import solve_quadratic

__all__ = ["TruncationErrorReport", "measure_truncation_error"]


@dataclass(frozen=True)
class TruncationErrorReport:
    """Measured vs bounded truncation error for one dataset.

    Attributes
    ----------
    measured_gap:
        Realized ``(f(w_hat) - f(w_tilde)) / n`` on the exact objective
        (non-negative by optimality of ``w_tilde``).
    paper_bound:
        The paper's quoted constant (~0.015).
    strict_bound:
        The conservative two-sided Lemma-3 value (2x the paper's).
    max_score:
        Largest ``|x^T w|`` reached by either solution — the Lemma-4
        remainder interval assumption is ``<= 1``; larger scores void the
        bound (reported so callers can check applicability).
    """

    measured_gap: float
    paper_bound: float
    strict_bound: float
    max_score: float

    @property
    def within_paper_bound(self) -> bool:
        """Whether the realized gap respects the paper's constant."""
        return self.measured_gap <= self.paper_bound + 1e-12

    @property
    def within_strict_bound(self) -> bool:
        """Whether the realized gap respects the two-sided constant."""
        return self.measured_gap <= self.strict_bound + 1e-12


def measure_truncation_error(
    X: np.ndarray,
    y: np.ndarray,
    approximation: str = "taylor",
) -> TruncationErrorReport:
    """Compare exact and truncated logistic solutions on one dataset."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if X.ndim != 2 or X.shape[0] == 0:
        raise DataError(f"X must be a non-empty 2-d matrix, got shape {X.shape}")
    n, d = X.shape
    objective = LogisticRegressionObjective(d, approximation=approximation)
    objective.validate(X, y)
    exact_model = LogisticRegressionModel().fit(X, y)
    w_exact = exact_model.coef_
    form = objective.aggregate_quadratic(X, y)
    try:
        w_truncated = solve_quadratic(form).x
    except Exception:
        w_truncated = np.linalg.pinv(2.0 * form.M) @ (-form.alpha)
    gap = (
        objective.true_loss(w_truncated, X, y) - objective.true_loss(w_exact, X, y)
    ) / n
    scores = np.abs(np.concatenate([X @ w_exact, X @ w_truncated]))
    return TruncationErrorReport(
        measured_gap=float(gap),
        paper_bound=logistic_truncation_error_bound(),
        strict_bound=logistic_truncation_error_bound_two_sided(),
        max_score=float(scores.max()) if scores.size else 0.0,
    )
