"""Multivariate polynomial algebra over the model parameter ``omega``.

Two representations are provided:

:class:`Polynomial`
    Sparse map ``{exponent tuple -> coefficient}`` supporting arbitrary
    finite degree ``J``.  This is the general vehicle of Algorithm 1 — the
    Functional Mechanism perturbs *these* coefficients.

:class:`QuadraticForm`
    Dense ``(M, alpha, beta)`` triple encoding
    ``f(w) = w^T M w + alpha^T w + beta`` with symmetric ``M``.  Degree-2
    objectives (linear regression exactly; logistic regression after the
    Section-5 truncation) are carried in this form because the Section-6
    post-processing (regularization, spectral trimming) and the closed-form
    minimizer live naturally in matrix language.

Conversions between the two are exact and round-trip: the coefficient of the
cross monomial ``w_j w_l`` (``j != l``) equals ``2 M[j, l]`` under symmetric
``M``, and the coefficient of ``w_j^2`` equals ``M[j, j]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from ..exceptions import (
    DegreeError,
    DimensionMismatchError,
    UnboundedObjectiveError,
)
from .basis import (
    Exponents,
    monomial_degree,
    monomial_string,
    multinomial_coefficient,
    monomials_of_degree,
)

__all__ = ["Polynomial", "QuadraticForm", "linear_form_power"]

#: Coefficients with magnitude below this are dropped during normalization.
_COEFF_EPS = 0.0  # exact arithmetic: keep everything that is not exactly 0


class Polynomial:
    """A sparse multivariate polynomial in ``dim`` variables.

    Instances are immutable: arithmetic returns new objects.  Coefficients
    exactly equal to zero are not stored.

    Parameters
    ----------
    dim:
        Number of variables (the model dimensionality ``d``).
    terms:
        Mapping from exponent tuples (length ``dim``) to coefficients.

    Examples
    --------
    >>> p = Polynomial(1, {(2,): 2.06, (1,): -2.34, (0,): 1.25})  # Figure 2
    >>> round(p.evaluate(np.array([117 / 206])), 6)
    0.585485
    """

    __slots__ = ("_dim", "_terms")

    def __init__(self, dim: int, terms: Mapping[Exponents, float] | None = None) -> None:
        dim = int(dim)
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self._dim = dim
        clean: dict[Exponents, float] = {}
        for exponents, coefficient in (terms or {}).items():
            key = tuple(int(c) for c in exponents)
            if len(key) != dim:
                raise DimensionMismatchError(dim, len(key), what="exponent tuple length")
            if any(c < 0 for c in key):
                raise DegreeError(f"exponents must be non-negative, got {key}")
            value = float(coefficient)
            if not math.isfinite(value):
                raise ValueError(f"coefficient for {key} is not finite: {value!r}")
            if value != 0.0:
                clean[key] = clean.get(key, 0.0) + value
                if clean[key] == 0.0:
                    del clean[key]
        self._terms = clean

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def dim(self) -> int:
        """Number of variables."""
        return self._dim

    @property
    def degree(self) -> int:
        """Total degree (0 for the zero polynomial)."""
        if not self._terms:
            return 0
        return max(monomial_degree(e) for e in self._terms)

    @property
    def num_terms(self) -> int:
        """Number of stored (non-zero) monomials."""
        return len(self._terms)

    def coefficient(self, exponents: Sequence[int]) -> float:
        """Coefficient of a monomial (0.0 if absent)."""
        return self._terms.get(tuple(int(c) for c in exponents), 0.0)

    def terms(self) -> Iterator[tuple[Exponents, float]]:
        """Iterate ``(exponents, coefficient)`` pairs in degree-major order."""
        return iter(
            sorted(self._terms.items(), key=lambda kv: (monomial_degree(kv[0]), kv[0]))
        )

    def coefficients_of_degree(self, degree: int) -> dict[Exponents, float]:
        """All stored coefficients whose monomial has exactly this degree."""
        return {
            e: c for e, c in self._terms.items() if monomial_degree(e) == degree
        }

    def l1_norm(self) -> float:
        """Sum of absolute coefficient values, ``sum_phi |lambda_phi|``.

        This is the quantity Lemma 1 bounds per-tuple to obtain the
        sensitivity ``Delta``.
        """
        return math.fsum(abs(c) for c in self._terms.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._dim == other._dim and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self._dim, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        if not self._terms:
            return f"Polynomial({self._dim}, 0)"
        rendered = " + ".join(
            f"{coeff:g}*{monomial_string(exps)}" for exps, coeff in self.terms()
        )
        return f"Polynomial({self._dim}, {rendered})"

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def _check_same_dim(self, other: "Polynomial") -> None:
        if self._dim != other._dim:
            raise DimensionMismatchError(self._dim, other._dim, what="polynomial dim")

    def __add__(self, other: "Polynomial | float | int") -> "Polynomial":
        if isinstance(other, (int, float)):
            other = Polynomial(self._dim, {(0,) * self._dim: float(other)})
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_same_dim(other)
        merged = dict(self._terms)
        for exps, coeff in other._terms.items():
            merged[exps] = merged.get(exps, 0.0) + coeff
        return Polynomial(self._dim, merged)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(self._dim, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "Polynomial | float | int") -> "Polynomial":
        if isinstance(other, (int, float)):
            return self + (-float(other))
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: float | int) -> "Polynomial":
        return (-self) + float(other)

    def __mul__(self, other: "Polynomial | float | int") -> "Polynomial":
        if isinstance(other, (int, float)):
            return Polynomial(
                self._dim, {e: c * float(other) for e, c in self._terms.items()}
            )
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_same_dim(other)
        product: dict[Exponents, float] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                product[key] = product.get(key, 0.0) + c1 * c2
        return Polynomial(self._dim, product)

    __rmul__ = __mul__

    def __pow__(self, power: int) -> "Polynomial":
        power = int(power)
        if power < 0:
            raise DegreeError(f"polynomial power must be >= 0, got {power}")
        result = Polynomial.constant(self._dim, 1.0)
        base = self
        while power:
            if power & 1:
                result = result * base
            base = base * base if power > 1 else base
            power >>= 1
        return result

    # ------------------------------------------------------------------
    # Calculus
    # ------------------------------------------------------------------
    def evaluate(self, omega: np.ndarray) -> float:
        """Evaluate the polynomial at a parameter vector."""
        omega = self._as_point(omega)
        total = 0.0
        for exps, coeff in self._terms.items():
            value = coeff
            for w, c in zip(omega, exps):
                if c:
                    value *= w**c
            total += value
        return float(total)

    def gradient(self, omega: np.ndarray) -> np.ndarray:
        """Gradient vector at ``omega``."""
        omega = self._as_point(omega)
        grad = np.zeros(self._dim, dtype=float)
        for exps, coeff in self._terms.items():
            for k, c_k in enumerate(exps):
                if c_k == 0:
                    continue
                value = coeff * c_k
                for j, (w, c) in enumerate(zip(omega, exps)):
                    power = c - 1 if j == k else c
                    if power:
                        value *= w**power
                grad[k] += value
        return grad

    def hessian(self, omega: np.ndarray) -> np.ndarray:
        """Hessian matrix at ``omega``."""
        omega = self._as_point(omega)
        hess = np.zeros((self._dim, self._dim), dtype=float)
        for exps, coeff in self._terms.items():
            for k, c_k in enumerate(exps):
                if c_k == 0:
                    continue
                for l, c_l in enumerate(exps):
                    if k == l:
                        if c_k < 2:
                            continue
                        factor = c_k * (c_k - 1)
                    else:
                        if c_l == 0:
                            continue
                        factor = c_k * c_l
                    value = coeff * factor
                    for j, (w, c) in enumerate(zip(omega, exps)):
                        power = c
                        if j == k:
                            power -= 1
                        if j == l:
                            power -= 1
                        if power:
                            value *= w**power
                    hess[k, l] += value
        return hess

    def partial_derivative(self, variable: int) -> "Polynomial":
        """Symbolic partial derivative with respect to one variable."""
        variable = int(variable)
        if not 0 <= variable < self._dim:
            raise DimensionMismatchError(self._dim, variable, what="variable index")
        derived: dict[Exponents, float] = {}
        for exps, coeff in self._terms.items():
            c = exps[variable]
            if c == 0:
                continue
            new_exps = tuple(
                e - 1 if j == variable else e for j, e in enumerate(exps)
            )
            derived[new_exps] = derived.get(new_exps, 0.0) + coeff * c
        return Polynomial(self._dim, derived)

    def _as_point(self, omega: np.ndarray) -> np.ndarray:
        omega = np.asarray(omega, dtype=float).ravel()
        if omega.shape[0] != self._dim:
            raise DimensionMismatchError(self._dim, omega.shape[0], what="point dim")
        return omega

    # ------------------------------------------------------------------
    # Constructors / conversions
    # ------------------------------------------------------------------
    @staticmethod
    def zero(dim: int) -> "Polynomial":
        """The zero polynomial."""
        return Polynomial(dim, {})

    @staticmethod
    def constant(dim: int, value: float) -> "Polynomial":
        """A constant polynomial."""
        return Polynomial(dim, {(0,) * int(dim): float(value)})

    @staticmethod
    def linear(coefficients: Sequence[float] | np.ndarray, constant: float = 0.0) -> "Polynomial":
        """Build ``c^T w + constant`` from a coefficient vector."""
        coeffs = np.asarray(coefficients, dtype=float).ravel()
        dim = coeffs.shape[0]
        terms: dict[Exponents, float] = {}
        if constant:
            terms[(0,) * dim] = float(constant)
        for j, c in enumerate(coeffs):
            if c != 0.0:
                exps = tuple(1 if k == j else 0 for k in range(dim))
                terms[exps] = float(c)
        return Polynomial(dim, terms)

    @staticmethod
    def sum(polynomials: Iterable["Polynomial"], dim: int | None = None) -> "Polynomial":
        """Sum a (possibly empty) iterable of polynomials."""
        result: Polynomial | None = None
        for p in polynomials:
            result = p if result is None else result + p
        if result is None:
            if dim is None:
                raise ValueError("dim is required to sum an empty iterable")
            return Polynomial.zero(dim)
        return result

    def to_quadratic_form(self) -> "QuadraticForm":
        """Convert a degree<=2 polynomial into a :class:`QuadraticForm`.

        Raises :class:`~repro.exceptions.DegreeError` if any monomial has
        degree above 2.
        """
        if self.degree > 2:
            raise DegreeError(
                f"polynomial has degree {self.degree}; QuadraticForm requires <= 2"
            )
        d = self._dim
        M = np.zeros((d, d), dtype=float)
        alpha = np.zeros(d, dtype=float)
        beta = 0.0
        for exps, coeff in self._terms.items():
            degree = monomial_degree(exps)
            if degree == 0:
                beta = coeff
            elif degree == 1:
                alpha[exps.index(1)] = coeff
            else:
                nonzero = [j for j, c in enumerate(exps) if c]
                if len(nonzero) == 1:
                    j = nonzero[0]
                    M[j, j] = coeff
                else:
                    j, l = nonzero
                    M[j, l] = coeff / 2.0
                    M[l, j] = coeff / 2.0
        return QuadraticForm(M=M, alpha=alpha, beta=beta)


def linear_form_power(x: np.ndarray, power: int) -> Polynomial:
    """Expand ``(x^T w)^power`` into the monomial basis.

    This is the bridge between the Taylor expansion of Section 5 (powers of
    the linear form ``g(t, w) = x^T w``) and the coefficient space that
    Algorithm 1 perturbs.  By the multinomial theorem,

        (x^T w)^k = sum_{|c| = k} multinomial(c) * prod_j x_j^{c_j} * w^c.

    >>> linear_form_power(np.array([1.0, 2.0]), 2).coefficient((1, 1))
    4.0
    """
    x = np.asarray(x, dtype=float).ravel()
    power = int(power)
    if power < 0:
        raise DegreeError(f"power must be >= 0, got {power}")
    dim = x.shape[0]
    terms: dict[Exponents, float] = {}
    for exps in monomials_of_degree(dim, power):
        coeff = float(multinomial_coefficient(exps))
        for xj, c in zip(x, exps):
            if c:
                coeff *= xj**c
        if coeff != 0.0:
            terms[exps] = coeff
    return Polynomial(dim, terms)


@dataclass
class QuadraticForm:
    """Dense degree-2 objective ``f(w) = w^T M w + alpha^T w + beta``.

    ``M`` is stored symmetrized: the constructor averages ``M`` with its
    transpose, which leaves the represented function unchanged and gives the
    Section-6 machinery (eigendecomposition, regularization) a symmetric
    matrix to work on.
    """

    M: np.ndarray
    alpha: np.ndarray
    beta: float = 0.0

    def __post_init__(self) -> None:
        M = np.asarray(self.M, dtype=float)
        alpha = np.asarray(self.alpha, dtype=float).ravel()
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise DimensionMismatchError(
                M.shape[0] if M.ndim else 0,
                M.shape[1] if M.ndim == 2 else -1,
                what="quadratic matrix shape",
            )
        if alpha.shape[0] != M.shape[0]:
            raise DimensionMismatchError(M.shape[0], alpha.shape[0], what="alpha length")
        if not (np.all(np.isfinite(M)) and np.all(np.isfinite(alpha)) and math.isfinite(self.beta)):
            raise ValueError("QuadraticForm entries must be finite")
        self.M = (M + M.T) / 2.0
        self.alpha = alpha
        self.beta = float(self.beta)

    # ------------------------------------------------------------------
    @property
    def dim(self) -> int:
        """Number of variables."""
        return self.M.shape[0]

    def evaluate(self, omega: np.ndarray) -> float:
        """Evaluate at ``omega``."""
        omega = self._as_point(omega)
        return float(omega @ self.M @ omega + self.alpha @ omega + self.beta)

    def gradient(self, omega: np.ndarray) -> np.ndarray:
        """Gradient ``2 M w + alpha``."""
        omega = self._as_point(omega)
        return 2.0 * self.M @ omega + self.alpha

    def hessian(self, omega: np.ndarray | None = None) -> np.ndarray:
        """Constant Hessian ``2 M`` (argument accepted for API symmetry)."""
        return 2.0 * self.M

    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues of the symmetric matrix ``M``."""
        return np.linalg.eigvalsh(self.M)

    def is_positive_definite(self, tol: float = 0.0) -> bool:
        """Whether all eigenvalues of ``M`` exceed ``tol``.

        A positive definite ``M`` is exactly the condition under which the
        quadratic objective has a unique, finite minimizer (Section 6).
        """
        return bool(self.eigenvalues().min() > tol)

    def minimize(self) -> np.ndarray:
        """Closed-form minimizer ``w* = -M^{-1} alpha / 2``.

        Raises
        ------
        UnboundedObjectiveError
            If ``M`` is not positive definite — the situation Section 6 is
            about: the noisy objective may have no minimum.  Callers wanting
            repair should go through
            :mod:`repro.core.postprocess` instead of calling this raw.
        """
        smallest = float(self.eigenvalues().min())
        if smallest <= 0.0:
            raise UnboundedObjectiveError(
                f"quadratic form is not positive definite "
                f"(min eigenvalue {smallest:.3e}); the noisy objective has no "
                f"finite minimizer — apply Section-6 post-processing"
            )
        return np.linalg.solve(2.0 * self.M, -self.alpha)

    # ------------------------------------------------------------------
    def __add__(self, other: "QuadraticForm") -> "QuadraticForm":
        if not isinstance(other, QuadraticForm):
            return NotImplemented
        if other.dim != self.dim:
            raise DimensionMismatchError(self.dim, other.dim, what="QuadraticForm dim")
        return QuadraticForm(
            M=self.M + other.M, alpha=self.alpha + other.alpha, beta=self.beta + other.beta
        )

    def scale(self, factor: float) -> "QuadraticForm":
        """Return the form multiplied by a scalar."""
        factor = float(factor)
        return QuadraticForm(M=self.M * factor, alpha=self.alpha * factor, beta=self.beta * factor)

    def with_ridge(self, lam: float) -> "QuadraticForm":
        """Return the form with ``lam`` added to the diagonal of ``M``.

        This is Equation 13's regularization ``M* + lambda I``.
        """
        lam = float(lam)
        return QuadraticForm(
            M=self.M + lam * np.eye(self.dim), alpha=self.alpha.copy(), beta=self.beta
        )

    def to_polynomial(self) -> Polynomial:
        """Exact conversion to the sparse representation."""
        d = self.dim
        terms: dict[Exponents, float] = {}
        if self.beta != 0.0:
            terms[(0,) * d] = self.beta
        for j in range(d):
            if self.alpha[j] != 0.0:
                exps = tuple(1 if k == j else 0 for k in range(d))
                terms[exps] = float(self.alpha[j])
        for j in range(d):
            for l in range(j, d):
                if j == l:
                    coeff = float(self.M[j, j])
                else:
                    coeff = float(self.M[j, l] + self.M[l, j])
                if coeff != 0.0:
                    exps = tuple(
                        (2 if k == j else 0) if j == l else (1 if k in (j, l) else 0)
                        for k in range(d)
                    )
                    terms[exps] = coeff
        return Polynomial(d, terms)

    @staticmethod
    def zero(dim: int) -> "QuadraticForm":
        """The identically-zero quadratic form."""
        dim = int(dim)
        return QuadraticForm(M=np.zeros((dim, dim)), alpha=np.zeros(dim), beta=0.0)

    def copy(self) -> "QuadraticForm":
        """Deep copy."""
        return QuadraticForm(M=self.M.copy(), alpha=self.alpha.copy(), beta=self.beta)

    def _as_point(self, omega: np.ndarray) -> np.ndarray:
        omega = np.asarray(omega, dtype=float).ravel()
        if omega.shape[0] != self.dim:
            raise DimensionMismatchError(self.dim, omega.shape[0], what="point dim")
        return omega
