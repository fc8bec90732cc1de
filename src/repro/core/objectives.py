"""Objective functions in polynomial form for the Functional Mechanism.

An objective here is the paper's ``f_D(w) = sum_i f(t_i, w)`` together with
everything Algorithm 1 needs:

* the per-tuple polynomial representation ``f(t_i, .)`` (Equation 3),
* a fast vectorized aggregation to the database-level coefficient vector,
* the Lemma-1 sensitivity bound derived from the *declared* domains
  (``||x||_2 <= 1``, target range) — never from the realized data,
* the exact (un-approximated) loss for diagnostics and baseline fitting.

Two concrete objectives implement the paper's case studies:

:class:`LinearRegressionObjective`
    Definition 1 — exactly quadratic, sensitivity ``2(d + 1)^2``
    (Section 4.2).

:class:`LogisticRegressionObjective`
    Definition 2 — degree-2 approximation (Taylor at 0, Section 5, or the
    Chebyshev alternative of Section 8's future work), sensitivity
    ``d^2/4 + 3d`` for the Taylor coefficients (Section 5.3).  Higher even
    Taylor orders are supported as an extension.

Both also expose a ``tight=True`` sensitivity variant: the paper bounds
``sum_j |x_j| <= d`` although footnote-1 normalization guarantees the
stronger ``sum_j |x_j| <= sqrt(d)``; the tight bound injects less noise while
preserving the same DP guarantee, and is compared in an ablation bench.
"""

from __future__ import annotations

import abc
import math
from typing import Literal

import numpy as np

from ..exceptions import DataError, DegreeError, DomainError
from .basis import monomials_of_degree, multinomial_coefficient
from .chebyshev import QuadraticScalarApproximation, chebyshev_softplus
from .polynomial import Polynomial, QuadraticForm
from .taylor import softplus_term, taylor_polynomial

__all__ = [
    "RegressionObjective",
    "LinearRegressionObjective",
    "LogisticRegressionObjective",
    "NORM_TOLERANCE",
    "objective_for",
    "scaled_cross_moment",
]

#: Slack allowed when validating ``||x||_2 <= 1`` and target ranges.
NORM_TOLERANCE = 1e-9


def _validate_matrix(X: np.ndarray, dim: int) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DataError(f"X must be 2-d, got ndim={X.ndim}")
    if X.shape[1] != dim:
        raise DataError(f"X has {X.shape[1]} columns; objective has dim {dim}")
    if not np.all(np.isfinite(X)):
        raise DataError("X must be finite")
    return X


def scaled_cross_moment(scale: float, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``scale * X.T @ y`` bit for bit, without the scaled ``n x d`` copy.

    numpy parses ``scale * X.T @ y`` as ``(scale * X.T) @ y``: it fills a
    scaled copy of ``X`` before one GEMV.  For ``scale = +-2`` (exact in
    binary floating point; no overflow on the declared ``|x|, |y| <= 1``
    domains) ``scale * (X.T @ y)`` rounds identically as long as the GEMV
    sees the copy's operand layout — so a strided ``X`` is gathered into
    that same contiguous layout — and ``0.0 +`` turns the ``-0.0`` of an
    exact-zero entry back into the ``+0.0`` the scaled GEMV accumulates.
    """
    if not (X.flags.c_contiguous or X.flags.f_contiguous):
        X = X.copy(order="K")
    return 0.0 + scale * (X.T @ y)


class RegressionObjective(abc.ABC):
    """Abstract per-tuple decomposable objective with polynomial coefficients.

    Parameters
    ----------
    dim:
        Number of model parameters ``d`` (= number of features).
    """

    #: Which accuracy metric the paper uses for this task.
    task: str = "abstract"

    def __init__(self, dim: int) -> None:
        dim = int(dim)
        if dim < 1:
            raise DataError(f"dim must be >= 1, got {dim}")
        self._dim = dim

    @property
    def dim(self) -> int:
        """Model dimensionality ``d``."""
        return self._dim

    @property
    @abc.abstractmethod
    def degree(self) -> int:
        """Degree ``J`` of the polynomial representation."""

    # ------------------------------------------------------------------
    # Polynomial representation
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def tuple_polynomial(self, x: np.ndarray, y: float) -> Polynomial:
        """The per-tuple cost ``f(t, .)`` in the monomial basis."""

    def aggregate_polynomial(self, X: np.ndarray, y: np.ndarray) -> Polynomial:
        """Database-level coefficients ``sum_i lambda_phi(t_i)`` as a polynomial.

        The base implementation sums per-tuple polynomials; subclasses
        override with vectorized versions.
        """
        X = _validate_matrix(X, self.dim)
        y = np.asarray(y, dtype=float).ravel()
        return Polynomial.sum(
            (self.tuple_polynomial(x_i, y_i) for x_i, y_i in zip(X, y)),
            dim=self.dim,
        )

    def aggregate_quadratic(self, X: np.ndarray, y: np.ndarray) -> QuadraticForm:
        """Degree-2 aggregation as a :class:`QuadraticForm` (fast path).

        Only valid when :attr:`degree` is at most 2.
        """
        if self.degree > 2:
            raise DegreeError(
                f"objective has degree {self.degree}; use aggregate_polynomial"
            )
        return self.aggregate_polynomial(X, y).to_quadratic_form()

    # ------------------------------------------------------------------
    # Sensitivity (Lemma 1)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def per_tuple_l1_bound(self, tight: bool = False) -> float:
        """Upper bound on ``sum_phi |lambda_phi(t)|`` over the tuple domain."""

    def sensitivity(self, tight: bool = False) -> float:
        """Lemma-1 sensitivity ``Delta = 2 * max_t sum_phi |lambda_phi(t)|``."""
        return 2.0 * self.per_tuple_l1_bound(tight=tight)

    # ------------------------------------------------------------------
    # Exact loss and validation
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def true_loss(self, omega: np.ndarray, X: np.ndarray, y: np.ndarray) -> float:
        """The exact (un-approximated) objective ``f_D(w)``."""

    def validate(self, X: np.ndarray, y: np.ndarray) -> None:
        """Check footnote-1/definition domain assumptions; raise on violation."""
        X = _validate_matrix(X, self.dim)
        y = np.asarray(y, dtype=float).ravel()
        if X.shape[0] != y.shape[0]:
            raise DataError(f"X has {X.shape[0]} rows but y has {y.shape[0]} entries")
        if not np.all(np.isfinite(y)):
            raise DataError("y must be finite")
        norms = np.linalg.norm(X, axis=1)
        if norms.size and float(norms.max()) > 1.0 + NORM_TOLERANCE:
            raise DomainError(
                f"feature vectors must satisfy ||x||_2 <= 1 (footnote 1); "
                f"max norm is {float(norms.max()):.6f} — apply FeatureScaler first"
            )
        self._validate_target(y)

    @abc.abstractmethod
    def _validate_target(self, y: np.ndarray) -> None:
        """Task-specific target-domain check."""


class LinearRegressionObjective(RegressionObjective):
    """Definition 1: ``f(t, w) = (y - x^T w)^2`` — exactly degree 2.

    Expanding per tuple (Section 4.2):

        f(t, w) = y^2 - sum_j (2 y x_j) w_j + sum_{j,l} (x_j x_l) w_j w_l,

    so the coefficient of ``1`` is ``y^2``, of ``w_j`` is ``-2 y x_j``, and
    of the monomial ``w_j w_l`` is ``x_j x_l`` (``2 x_j x_l`` for ``j != l``
    after merging the symmetric pair).

    >>> obj = LinearRegressionObjective(dim=1)
    >>> X = np.array([[1.0], [0.9], [-0.5]]); y = np.array([0.4, 0.3, -1.0])
    >>> q = obj.aggregate_quadratic(X, y)   # the paper's Figure-2 example
    >>> (round(float(q.M[0, 0]), 2), round(float(q.alpha[0]), 2), round(q.beta, 2))
    (2.06, -2.34, 1.25)
    """

    task = "linear"

    @property
    def degree(self) -> int:
        return 2

    def tuple_polynomial(self, x: np.ndarray, y: float) -> Polynomial:
        x = np.asarray(x, dtype=float).ravel()
        if x.shape[0] != self.dim:
            raise DataError(f"x has length {x.shape[0]}; objective has dim {self.dim}")
        y = float(y)
        quad = QuadraticForm(M=np.outer(x, x), alpha=-2.0 * y * x, beta=y * y)
        return quad.to_polynomial()

    def aggregate_polynomial(self, X: np.ndarray, y: np.ndarray) -> Polynomial:
        return self.aggregate_quadratic(X, y).to_polynomial()

    def aggregate_quadratic(self, X: np.ndarray, y: np.ndarray) -> QuadraticForm:
        X = _validate_matrix(X, self.dim)
        y = np.asarray(y, dtype=float).ravel()
        if X.shape[0] != y.shape[0]:
            raise DataError(f"X has {X.shape[0]} rows but y has {y.shape[0]} entries")
        return self._quadratic_coefficients(X, y)

    def _quadratic_coefficients(self, X: np.ndarray, y: np.ndarray) -> QuadraticForm:
        """The aggregation arithmetic alone, on checked float64 ``X`` and 1-d ``y``."""
        return QuadraticForm(
            M=X.T @ X, alpha=scaled_cross_moment(-2.0, X, y), beta=float(y @ y)
        )

    def per_tuple_l1_bound(self, tight: bool = False) -> float:
        """``y^2 + 2|y| sum|x_j| + (sum|x_j|)^2 <= 1 + 2 B + B^2 = (1 + B)^2``.

        The paper takes ``B = d`` (each ``|x_j| <= 1``), giving
        ``(1 + d)^2`` and hence ``Delta = 2 (d + 1)^2``; footnote-1
        normalization actually guarantees ``B = sqrt(d)``, the ``tight``
        variant.
        """
        B = math.sqrt(self.dim) if tight else float(self.dim)
        return (1.0 + B) ** 2

    def true_loss(self, omega: np.ndarray, X: np.ndarray, y: np.ndarray) -> float:
        X = _validate_matrix(X, self.dim)
        y = np.asarray(y, dtype=float).ravel()
        residuals = y - X @ np.asarray(omega, dtype=float).ravel()
        return float(residuals @ residuals)

    def _validate_target(self, y: np.ndarray) -> None:
        if y.size and float(np.abs(y).max()) > 1.0 + NORM_TOLERANCE:
            raise DomainError(
                f"linear-regression target must lie in [-1, 1] (Definition 1); "
                f"max |y| is {float(np.abs(y).max()):.6f} — apply TargetScaler first"
            )


class LogisticRegressionObjective(RegressionObjective):
    """Definition 2 via a quadratic (or higher even order) approximation.

    The per-tuple cost ``log(1 + exp(x^T w)) - y x^T w`` is approximated as

        a0 + a1 (x^T w) + a2 (x^T w)^2 - y (x^T w)          (degree 2)

    with Taylor coefficients ``(log 2, 1/2, 1/8)`` (Section 5) or Chebyshev
    coefficients over ``[-radius, radius]`` (the Section-8 alternative).
    ``order > 2`` (even, Taylor only) keeps more terms of Equation 9.

    Parameters
    ----------
    dim:
        Number of features.
    approximation:
        ``"taylor"`` (paper default) or ``"chebyshev"``.
    order:
        Truncation order; must be a positive even integer so the leading
        term is ``+ c_K (x^T w)^K`` with ``c_K`` of known sign (odd leading
        terms are always unbounded below).
    radius:
        Chebyshev approximation interval half-width (ignored for Taylor).
    """

    task = "logistic"

    def __init__(
        self,
        dim: int,
        approximation: Literal["taylor", "chebyshev"] = "taylor",
        order: int = 2,
        radius: float = 1.0,
    ) -> None:
        super().__init__(dim)
        order = int(order)
        if order < 2 or order % 2 != 0:
            raise DegreeError(
                f"order must be a positive even integer (>= 2), got {order}"
            )
        if approximation not in ("taylor", "chebyshev"):
            raise ValueError(
                f"approximation must be 'taylor' or 'chebyshev', got {approximation!r}"
            )
        if approximation == "chebyshev" and order != 2:
            raise DegreeError("the Chebyshev alternative is implemented at order 2")
        self.approximation = approximation
        self.order = order
        self.radius = float(radius)
        self._term = softplus_term()
        if approximation == "taylor":
            self._coeffs = self._term.taylor_coefficients(order)
        else:
            cheb: QuadraticScalarApproximation = chebyshev_softplus(radius=self.radius)
            self._coeffs = list(cheb.coefficients())
            self.chebyshev_ = cheb

    @property
    def degree(self) -> int:
        return self.order

    @property
    def softplus_coefficients(self) -> tuple[float, ...]:
        """Approximation coefficients ``(a_0, a_1, ..., a_K)`` of softplus."""
        return tuple(self._coeffs)

    def tuple_polynomial(self, x: np.ndarray, y: float) -> Polynomial:
        x = np.asarray(x, dtype=float).ravel()
        if x.shape[0] != self.dim:
            raise DataError(f"x has length {x.shape[0]}; objective has dim {self.dim}")
        y = float(y)
        if self.approximation == "taylor":
            poly = taylor_polynomial(self._term, x, self.order)
        else:
            a0, a1, a2 = self._coeffs
            poly = (
                Polynomial.constant(self.dim, a0)
                + Polynomial.linear(a1 * x)
                + Polynomial.linear(x) * Polynomial.linear(a2 * x)
            )
        return poly - Polynomial.linear(y * x)

    def aggregate_quadratic(self, X: np.ndarray, y: np.ndarray) -> QuadraticForm:
        if self.order != 2:
            raise DegreeError(
                f"order-{self.order} objective is not quadratic; "
                f"use aggregate_polynomial"
            )
        X = _validate_matrix(X, self.dim)
        y = np.asarray(y, dtype=float).ravel()
        if X.shape[0] != y.shape[0]:
            raise DataError(f"X has {X.shape[0]} rows but y has {y.shape[0]} entries")
        return self._quadratic_coefficients(X, y)

    def _quadratic_coefficients(self, X: np.ndarray, y: np.ndarray) -> QuadraticForm:
        """The order-2 arithmetic alone, on checked float64 ``X`` and 1-d ``y``."""
        a0, a1, a2 = self._coeffs
        n = X.shape[0]
        return QuadraticForm(
            M=a2 * (X.T @ X),
            alpha=a1 * X.sum(axis=0) - X.T @ y,
            beta=a0 * n,
        )

    def aggregate_polynomial(self, X: np.ndarray, y: np.ndarray) -> Polynomial:
        if self.order == 2:
            return self.aggregate_quadratic(X, y).to_polynomial()
        # Vectorized aggregation for the higher-order extension: the
        # coefficient of monomial c (|c| = k) in sum_i a_k (x_i^T w)^k is
        # a_k * multinomial(c) * sum_i prod_j x_ij^c_j, so one column-product
        # reduction per basis monomial replaces the per-tuple Python loop.
        X = _validate_matrix(X, self.dim)
        y = np.asarray(y, dtype=float).ravel()
        if X.shape[0] != y.shape[0]:
            raise DataError(f"X has {X.shape[0]} rows but y has {y.shape[0]} entries")
        n, d = X.shape
        terms: dict[tuple[int, ...], float] = {(0,) * d: self._coeffs[0] * n}
        for k, a in enumerate(self._coeffs):
            if k == 0 or a == 0.0:
                continue
            for exps in monomials_of_degree(d, k):
                columns = np.ones(n)
                for j, c in enumerate(exps):
                    if c == 1:
                        columns = columns * X[:, j]
                    elif c > 1:
                        columns = columns * X[:, j] ** c
                value = a * multinomial_coefficient(exps) * float(columns.sum())
                terms[exps] = terms.get(exps, 0.0) + value
        moment = X.T @ y
        for j in range(d):
            exps = tuple(1 if i == j else 0 for i in range(d))
            terms[exps] = terms.get(exps, 0.0) - float(moment[j])
        return Polynomial(d, terms)

    def per_tuple_l1_bound(self, tight: bool = False) -> float:
        """``sum_{k>=1} |a_k| B^k + B`` with ``B = max_t sum_j |x_j|``.

        At order 2 / Taylor / ``B = d`` this is the paper's Section-5.3 value
        ``d/2 + d^2/8 + d``, i.e. ``Delta = d^2/4 + 3 d``.  The constant
        coefficient ``a_0`` is identical for every tuple and cancels in the
        neighbor difference, so (matching the paper) it does not enter the
        bound.
        """
        B = math.sqrt(self.dim) if tight else float(self.dim)
        bound = B  # the -y x^T w term, |y| <= 1
        for k, a in enumerate(self._coeffs):
            if k >= 1:
                bound += abs(a) * B**k
        return bound

    def true_loss(self, omega: np.ndarray, X: np.ndarray, y: np.ndarray) -> float:
        X = _validate_matrix(X, self.dim)
        y = np.asarray(y, dtype=float).ravel()
        z = X @ np.asarray(omega, dtype=float).ravel()
        return float(np.sum(np.logaddexp(0.0, z) - y * z))

    def approximate_loss(self, omega: np.ndarray, X: np.ndarray, y: np.ndarray) -> float:
        """The truncated objective ``f_hat_D(w)`` (what FM actually perturbs)."""
        X = _validate_matrix(X, self.dim)
        y = np.asarray(y, dtype=float).ravel()
        z = X @ np.asarray(omega, dtype=float).ravel()
        approx = np.zeros_like(z)
        for k, a in enumerate(self._coeffs):
            if a != 0.0:
                approx = approx + a * z**k
        return float(np.sum(approx - y * z))

    def _validate_target(self, y: np.ndarray) -> None:
        unique = np.unique(y)
        if unique.size and not np.all(np.isin(unique, (0.0, 1.0))):
            raise DomainError(
                f"logistic-regression target must be boolean {{0, 1}} "
                f"(Definition 2); got values {unique[:5]!r}"
            )


def objective_for(task: str, dim: int) -> RegressionObjective:
    """The degree-2 objective of a task (``"linear"`` or ``"logistic"``)."""
    if task == "linear":
        return LinearRegressionObjective(dim)
    return LogisticRegressionObjective(dim)
