"""Section 6: repairing noisy objectives that lost their minimizer.

Coefficient noise can make the quadratic matrix ``M*`` indefinite, in which
case ``argmin`` does not exist (Figure 2's parabola flips open-side-down).
All repairs below operate only on the *noisy* coefficients, so by the
post-processing property they cost no additional privacy budget — except the
Lemma-5 rerun strategy, which re-invokes the mechanism and therefore doubles
the privacy cost.

Strategies
----------
``NoRepair``
    Raise :class:`~repro.exceptions.UnboundedObjectiveError` when ``M*`` is
    not positive definite.  Useful for measuring *how often* repair is
    needed (ablation bench).
``Regularization`` (Section 6.1)
    Add ``lambda I`` with ``lambda = multiplier x noise_std`` (the paper's
    heuristic is ``multiplier = 4``; the noise std depends only on
    ``Delta / epsilon``, not on the data, so the choice is private).  Raises
    if the regularized matrix is still not positive definite.
``SpectralTrimming`` (Section 6.2)
    Regularize, eigendecompose ``M* + lambda I = Q^T Lambda Q``, drop the
    non-positive eigenvalues, minimize in the retained subspace
    ``V = -(1/2) Lambda'^{-1} Q' alpha*`` and return the minimum-norm
    preimage ``omega = Q'^T V``.  Always produces a finite answer (an
    all-non-positive spectrum yields the zero vector).
``RerunUntilBounded`` (Lemma 5)
    Redraw the noise until the objective is bounded.  Satisfies
    ``2 epsilon``-DP (the lemma's bound); exposed mainly so the benches can
    quantify the accuracy/privacy trade against the free repairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..exceptions import UnboundedObjectiveError
from .polynomial import QuadraticForm

__all__ = [
    "PostProcessResult",
    "PostProcessingStrategy",
    "NoRepair",
    "Regularization",
    "SpectralTrimming",
    "RerunUntilBounded",
    "get_strategy",
]

#: Eigenvalues below this are treated as non-positive during trimming.
_EIGEN_TOL = 1e-12


@dataclass(frozen=True)
class PostProcessResult:
    """Outcome of repairing + minimizing a noisy quadratic objective.

    Attributes
    ----------
    omega:
        The released model parameter.
    strategy:
        Name of the strategy that produced it.
    lam:
        Ridge constant applied (0.0 when none).
    trimmed:
        Number of eigenvalues removed by spectral trimming.
    attempts:
        Mechanism invocations consumed (1 except for the rerun strategy).
    privacy_cost_factor:
        Multiple of ``epsilon`` actually spent (2.0 for rerun, else 1.0).
    repaired:
        Whether the raw noisy objective was already well-posed (False) or
        needed intervention (True).
    """

    omega: np.ndarray
    strategy: str
    lam: float = 0.0
    trimmed: int = 0
    attempts: int = 1
    privacy_cost_factor: float = 1.0
    repaired: bool = False


class PostProcessingStrategy:
    """Interface: turn a noisy quadratic objective into a released ``omega``."""

    name: str = "abstract"

    def solve(
        self,
        noisy: QuadraticForm,
        noise_std: float,
        renoise: Optional[Callable[[], QuadraticForm]] = None,
    ) -> PostProcessResult:
        """Minimize ``noisy``, repairing it if necessary.

        Parameters
        ----------
        noisy:
            The perturbed objective from Algorithm 1.
        noise_std:
            Per-coefficient noise standard deviation (``sqrt(2) Delta/eps``);
            data-independent, so using it to size ``lambda`` is private.
        renoise:
            Zero-argument callable that re-runs Algorithm 1 and returns a
            fresh noisy objective.  Only the rerun strategy uses it.
        """
        raise NotImplementedError


class NoRepair(PostProcessingStrategy):
    """Fail loudly when the noisy objective is unbounded."""

    name = "none"

    def solve(
        self,
        noisy: QuadraticForm,
        noise_std: float,
        renoise: Optional[Callable[[], QuadraticForm]] = None,
    ) -> PostProcessResult:
        omega = noisy.minimize()  # raises UnboundedObjectiveError if indefinite
        return PostProcessResult(omega=omega, strategy=self.name)


@dataclass
class Regularization(PostProcessingStrategy):
    """Section 6.1: ridge repair with ``lambda = multiplier x noise_std``."""

    multiplier: float = 4.0

    def __post_init__(self) -> None:
        if self.multiplier < 0.0 or not math.isfinite(self.multiplier):
            raise ValueError(f"multiplier must be non-negative, got {self.multiplier!r}")

    name = "regularize"

    def solve(
        self,
        noisy: QuadraticForm,
        noise_std: float,
        renoise: Optional[Callable[[], QuadraticForm]] = None,
    ) -> PostProcessResult:
        already_fine = noisy.is_positive_definite(tol=_EIGEN_TOL)
        lam = self.multiplier * float(noise_std)
        regularized = noisy.with_ridge(lam)
        if not regularized.is_positive_definite(tol=_EIGEN_TOL):
            raise UnboundedObjectiveError(
                f"objective remains unbounded after lambda={lam:.4g} "
                f"regularization; use SpectralTrimming"
            )
        return PostProcessResult(
            omega=regularized.minimize(),
            strategy=self.name,
            lam=lam,
            repaired=not already_fine,
        )


@dataclass
class SpectralTrimming(PostProcessingStrategy):
    """Section 6.2: regularize, then drop non-positive eigenvalues.

    With ``M* + lambda I = Q^T Lambda Q`` and ``Lambda'`` / ``Q'`` the
    positive part, the repaired objective in ``V = Q' omega`` is

        g(V) = V^T Lambda' V + (alpha*^T Q'^T) V + beta*,

    minimized at ``V = -(1/2) Lambda'^{-1} Q' alpha*``; the returned
    parameter is the minimum-norm preimage ``omega = Q'^T V`` (the paper
    notes ``Q' omega = V`` is underdetermined).

    Hardening over the paper's letter: eigenvalues that are positive but
    *smaller than a fraction of the coefficient noise's standard deviation*
    are trimmed too (``noise_relative_tol``).  A retained eigenvalue near
    zero is curvature made of pure noise, and dividing ``alpha*`` by it
    releases an exploding parameter — the paper's own justification for
    trimming ("non-positive elements in Lambda are mostly due to noise")
    applies equally to these.  The tolerance depends only on
    ``Delta/epsilon``, so it is data-independent and costs no privacy.
    Set ``noise_relative_tol=0`` for the paper's literal rule.
    """

    multiplier: float = 4.0
    eigen_tol: float = _EIGEN_TOL
    noise_relative_tol: float = 0.5

    name = "spectral"

    def solve(
        self,
        noisy: QuadraticForm,
        noise_std: float,
        renoise: Optional[Callable[[], QuadraticForm]] = None,
    ) -> PostProcessResult:
        lam = self.multiplier * float(noise_std)
        regularized = noisy.with_ridge(lam)
        eigenvalues, eigenvectors = np.linalg.eigh(regularized.M)
        tol = max(self.eigen_tol, self.noise_relative_tol * float(noise_std))
        keep = eigenvalues > tol
        trimmed = int(np.count_nonzero(~keep))
        already_fine = bool(keep.all()) and noisy.is_positive_definite(tol=self.eigen_tol)
        if trimmed == 0:
            return PostProcessResult(
                omega=regularized.minimize(),
                strategy=self.name,
                lam=lam,
                repaired=not already_fine,
            )
        if not keep.any():
            # No curvature survives the noise: the only defensible release is
            # the origin (data-independent), which the caller can detect via
            # trimmed == dim.
            return PostProcessResult(
                omega=np.zeros(noisy.dim),
                strategy=self.name,
                lam=lam,
                trimmed=trimmed,
                repaired=True,
            )
        # Rows of Q' are the retained eigenvectors (numpy returns them as
        # columns of `eigenvectors`).
        Q_kept = eigenvectors[:, keep].T
        retained = eigenvalues[keep]
        V = -0.5 * (Q_kept @ regularized.alpha) / retained
        omega = Q_kept.T @ V
        return PostProcessResult(
            omega=omega,
            strategy=self.name,
            lam=lam,
            trimmed=trimmed,
            repaired=True,
        )


@dataclass
class RerunUntilBounded(PostProcessingStrategy):
    """Lemma 5: redraw the noise until the objective has a minimizer.

    The released parameter satisfies ``(2 epsilon)``-DP, *not* ``epsilon``-DP
    — reflected in ``privacy_cost_factor = 2.0`` on the result.  A caller
    holding a :class:`~repro.privacy.budget.PrivacyBudget` should charge the
    doubled amount (the high-level estimators do this automatically).
    """

    max_attempts: int = 1000

    name = "rerun"

    def solve(
        self,
        noisy: QuadraticForm,
        noise_std: float,
        renoise: Optional[Callable[[], QuadraticForm]] = None,
    ) -> PostProcessResult:
        if renoise is None:
            raise ValueError("RerunUntilBounded requires a renoise callable")
        attempts = 1
        current = noisy
        while not current.is_positive_definite(tol=_EIGEN_TOL):
            if attempts >= self.max_attempts:
                raise UnboundedObjectiveError(
                    f"no bounded objective after {attempts} redraws; the noise "
                    f"scale likely dwarfs the data term — decrease Delta/epsilon "
                    f"or use SpectralTrimming"
                )
            current = renoise()
            attempts += 1
        return PostProcessResult(
            omega=current.minimize(),
            strategy=self.name,
            attempts=attempts,
            privacy_cost_factor=2.0,
            repaired=attempts > 1,
        )


_STRATEGIES: dict[str, Callable[[], PostProcessingStrategy]] = {
    "none": NoRepair,
    "regularize": Regularization,
    "spectral": SpectralTrimming,
    "rerun": RerunUntilBounded,
}


def get_strategy(name: str | PostProcessingStrategy) -> PostProcessingStrategy:
    """Resolve a strategy by name (``none|regularize|spectral|rerun``).

    Passing an already-constructed strategy returns it unchanged, so callers
    can supply customized instances (e.g. a different ``multiplier``).
    """
    if isinstance(name, PostProcessingStrategy):
        return name
    try:
        return _STRATEGIES[name]()
    except KeyError:
        raise ValueError(
            f"unknown post-processing strategy {name!r}; "
            f"expected one of {sorted(_STRATEGIES)}"
        ) from None
