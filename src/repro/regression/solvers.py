"""Convex optimization solvers used by the regression engines.

The paper's evaluation contrasts two computational regimes:

* FM solves a *quadratic* program — closed form, one linear solve; this is
  why Figures 7–9 show FM at least an order of magnitude faster than the
  iterative alternatives.
* NoPrivacy / Truncated / synthetic-data baselines minimize the original
  (logistic) loss — iterative Newton or gradient descent over all tuples.

Everything here is implemented from scratch on numpy so the reproduction does
not depend on an external ML stack: damped Newton with backtracking line
search, gradient descent with Armijo line search, and the closed-form
quadratic solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core.polynomial import QuadraticForm
from ..exceptions import ConvergenceError, SolverError

__all__ = [
    "SolverResult",
    "solve_quadratic",
    "GradientDescent",
    "NewtonSolver",
]

Objective = Callable[[np.ndarray], float]
Gradient = Callable[[np.ndarray], np.ndarray]
Hessian = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class SolverResult:
    """Outcome of an optimization run.

    Attributes
    ----------
    x:
        The minimizer found.
    fun:
        Objective value at ``x``.
    iterations:
        Iterations consumed (0 for closed-form solves).
    converged:
        Whether the stopping criterion was met within the iteration budget.
    gradient_norm:
        Max-norm of the gradient at ``x`` (0.0 when not applicable).
    """

    x: np.ndarray
    fun: float
    iterations: int
    converged: bool
    gradient_norm: float


def solve_quadratic(form: QuadraticForm) -> SolverResult:
    """Minimize a positive-definite quadratic form in closed form.

    Thin wrapper over :meth:`QuadraticForm.minimize` that returns the common
    :class:`SolverResult` shape (and therefore participates in the timing
    harness identically to the iterative solvers).
    """
    x = form.minimize()
    return SolverResult(
        x=x,
        fun=form.evaluate(x),
        iterations=0,
        converged=True,
        gradient_norm=float(np.abs(form.gradient(x)).max()),
    )


def _backtracking_step(
    objective: Objective,
    x: np.ndarray,
    fx: float,
    direction: np.ndarray,
    directional_derivative: float,
    initial_step: float = 1.0,
    shrink: float = 0.5,
    armijo: float = 1e-4,
    max_backtracks: int = 60,
) -> tuple[np.ndarray, float, float] | None:
    """Armijo backtracking line search along ``direction``.

    Returns ``(new_x, new_fx, step)`` or ``None`` if no acceptable step was
    found (direction is not a descent direction at working precision).
    """
    step = initial_step
    for _ in range(max_backtracks):
        candidate = x + step * direction
        f_candidate = objective(candidate)
        if np.isfinite(f_candidate) and f_candidate <= fx + armijo * step * directional_derivative:
            return candidate, f_candidate, step
        step *= shrink
    return None


@dataclass
class GradientDescent:
    """Gradient descent with Armijo backtracking line search.

    Parameters
    ----------
    max_iterations:
        Iteration budget.
    tolerance:
        Stop when the gradient max-norm drops below this.
    raise_on_failure:
        When True, a run that exhausts the budget raises
        :class:`~repro.exceptions.ConvergenceError`; otherwise the best
        iterate is returned with ``converged=False``.
    """

    max_iterations: int = 2000
    tolerance: float = 1e-8
    raise_on_failure: bool = False

    def minimize(
        self,
        objective: Objective,
        gradient: Gradient,
        x0: np.ndarray,
    ) -> SolverResult:
        """Minimize ``objective`` starting from ``x0``."""
        x = np.asarray(x0, dtype=float).copy()
        fx = float(objective(x))
        if not np.isfinite(fx):
            raise SolverError(f"objective is not finite at the starting point: {fx!r}")
        iterations = 0
        grad_norm = np.inf
        for iterations in range(1, self.max_iterations + 1):
            grad = gradient(x)
            grad_norm = float(np.abs(grad).max())
            if grad_norm <= self.tolerance:
                return SolverResult(x, fx, iterations - 1, True, grad_norm)
            direction = -grad
            dd = float(grad @ direction)
            outcome = _backtracking_step(objective, x, fx, direction, dd)
            if outcome is None:
                # No descent possible at working precision: treat as converged
                # if the gradient is already small-ish, else report failure.
                if grad_norm <= 1e3 * self.tolerance:
                    return SolverResult(x, fx, iterations, True, grad_norm)
                break
            x, fx, _ = outcome
        if self.raise_on_failure:
            raise ConvergenceError("GradientDescent", iterations, grad_norm)
        return SolverResult(x, fx, iterations, False, grad_norm)


@dataclass
class NewtonSolver:
    """Damped Newton's method with line search and gradient-descent fallback.

    At each iterate the Newton system ``H p = -g`` is solved; if ``H`` is
    singular or the step is not a descent direction, a small multiple of the
    identity is added (Levenberg-style) before falling back to the steepest
    descent direction.  Backtracking guarantees monotone objective decrease,
    so the solver is robust on the logistic loss whose Hessian can become
    near-singular for separable data.
    """

    max_iterations: int = 100
    tolerance: float = 1e-10
    damping: float = 1e-10
    raise_on_failure: bool = False

    def minimize(
        self,
        objective: Objective,
        gradient: Gradient,
        hessian: Hessian,
        x0: np.ndarray,
    ) -> SolverResult:
        """Minimize ``objective`` starting from ``x0``."""
        x = np.asarray(x0, dtype=float).copy()
        fx = float(objective(x))
        if not np.isfinite(fx):
            raise SolverError(f"objective is not finite at the starting point: {fx!r}")
        d = x.shape[0]
        identity = np.eye(d)
        iterations = 0
        grad_norm = np.inf
        for iterations in range(1, self.max_iterations + 1):
            grad = gradient(x)
            grad_norm = float(np.abs(grad).max())
            if grad_norm <= self.tolerance:
                return SolverResult(x, fx, iterations - 1, True, grad_norm)
            hess = hessian(x)
            direction = self._newton_direction(hess, grad, identity)
            dd = float(grad @ direction)
            if dd >= 0.0:  # not a descent direction; steepest descent instead
                direction = -grad
                dd = float(grad @ direction)
            outcome = _backtracking_step(objective, x, fx, direction, dd)
            if outcome is None:
                if grad_norm <= 1e3 * self.tolerance:
                    return SolverResult(x, fx, iterations, True, grad_norm)
                break
            x, fx, _ = outcome
        if self.raise_on_failure:
            raise ConvergenceError("NewtonSolver", iterations, grad_norm)
        return SolverResult(x, fx, iterations, False, grad_norm)

    def _newton_direction(
        self, hess: np.ndarray, grad: np.ndarray, identity: np.ndarray
    ) -> np.ndarray:
        damping = self.damping
        for _ in range(8):
            try:
                return np.linalg.solve(hess + damping * identity, -grad)
            except np.linalg.LinAlgError:
                damping = max(damping * 100.0, 1e-8)
        return -grad
