"""One data pass, many privacy budgets: vectorized epsilon sweeps.

A Table-2 budget sweep refits the Functional Mechanism at every epsilon in
``{3.2 ... 0.1}``.  The naive loop re-aggregates the database-level
coefficients once per epsilon — O(n_eps) passes over the data.  But the
coefficients do not depend on epsilon at all: only the Laplace scale
``Delta / epsilon`` does.  :class:`EpsilonSweepEngine` therefore takes one
finalized :class:`~repro.engine.accumulator.MomentAccumulator` (or snapshot)
and produces fitted models for a whole epsilon vector with **zero** further
data access — O(1 data pass + n_eps d^3 solves).

Noise layout and loop equivalence
---------------------------------
The engine draws a single standardized i.i.d. Laplace sample of shape
``(n_eps, 1 + d + d^2)`` and scales row ``i`` by ``Delta / epsilon_i``.
Each row is mapped to (constant, linear, quadratic) noise exactly the way
:meth:`~repro.core.mechanism.FunctionalMechanism.perturb_quadratic` consumes
its stream — one scalar, then ``d`` linear draws, then a ``d x d`` matrix
whose upper-triangle draw ``w`` splits as ``w/2`` on the symmetric pair.
Because NumPy generators consume their bit stream sequentially regardless of
call shapes, a sweep seeded with generator ``G`` is **bitwise identical** to
the per-epsilon loop ``FunctionalMechanism(eps_i, rng=G).perturb_quadratic``
sharing that same generator (for the non-rerun post-processing strategies;
the Lemma-5 rerun strategy consumes extra stream on demand).

Privacy
-------
Rows of one i.i.d. sample are mutually independent, so each sweep point is
exactly an Algorithm-1 release at its own ``epsilon_i``; releasing the whole
sweep composes sequentially to ``sum_i epsilon_i``, which is what the
optional budget accountant is charged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..core.mechanism import FunctionalMechanism, PerturbationRecord
from ..core.objectives import RegressionObjective
from ..core.polynomial import QuadraticForm
from ..core.postprocess import (
    PostProcessResult,
    PostProcessingStrategy,
    SpectralTrimming,
    get_strategy,
)
from ..exceptions import InvalidBudgetError
from ..obs import active_recorder
from ..privacy.budget import PrivacyBudget
from ..privacy.rng import RngLike, ensure_rng
from ..runtime.kernels import fm_noise_stack, spectral_solve_stack

__all__ = [
    "EpsilonSweepEngine",
    "EpsilonSweepResult",
    "SweepPoint",
    "SweepVariance",
]


@dataclass(frozen=True)
class SweepPoint:
    """One fitted sweep point.

    Attributes
    ----------
    epsilon:
        Budget of this release.
    omega:
        Released model parameter.
    record:
        The Algorithm-1 bookkeeping (scale, basis size, ...).
    post:
        Section-6 repair outcome.
    solve_seconds:
        Wall time of this point's noise mapping + repair + solve (the
        marginal cost of one extra epsilon — no data pass included).
    """

    epsilon: float
    omega: np.ndarray
    record: PerturbationRecord
    post: PostProcessResult
    solve_seconds: float


@dataclass(frozen=True)
class EpsilonSweepResult:
    """All sweep points of one engine invocation, in input order."""

    epsilons: tuple[float, ...]
    points: tuple[SweepPoint, ...]

    @property
    def coefficients(self) -> np.ndarray:
        """Fitted parameters stacked as an ``(n_eps, d)`` matrix."""
        return np.stack([p.omega for p in self.points])

    def point_at(self, epsilon: float) -> SweepPoint:
        """The sweep point for one epsilon value."""
        for p in self.points:
            if p.epsilon == float(epsilon):
                return p
        raise KeyError(f"epsilon {epsilon!r} not in sweep {self.epsilons}")


@dataclass(frozen=True)
class SweepVariance:
    """Repeated-draw spread of the released coefficients (for error bars).

    ``mean`` and ``std`` have shape ``(n_eps, d)``; ``std`` is the empirical
    per-coordinate standard deviation over ``repeats`` independent releases.
    """

    epsilons: tuple[float, ...]
    repeats: int
    mean: np.ndarray
    std: np.ndarray


class EpsilonSweepEngine:
    """Fit the Functional Mechanism at many budgets from one statistics pass.

    Parameters
    ----------
    objective:
        A degree-2 objective (the paper's linear or logistic case study);
        supplies the coefficient projection and the Lemma-1 sensitivity.
    statistics:
        A finalized :class:`~repro.engine.accumulator.MomentAccumulator` or
        :class:`~repro.engine.accumulator.MomentSnapshot` — anything with a
        ``quadratic_form(objective)`` method — **or** a ready
        :class:`~repro.core.polynomial.QuadraticForm` (the shared-moment
        fast path: a caller that already holds a fold's aggregated
        coefficients, e.g. from the runtime's
        :class:`~repro.runtime.plan.PreparedDataCache`, constructs sweeps
        with zero re-aggregation).  The engine touches the data only
        through it, hence exactly one data pass however many epsilons are
        swept.
    tight_sensitivity:
        Use the ``sqrt(d)`` L1 bound instead of the paper's ``d`` bound.
    post_processing:
        Section-6 repair strategy name or instance (default ``"spectral"``).
    ridge_lambda:
        Extra data-independent ridge added to each noisy objective.
    budget:
        Optional accountant; each ``sweep`` charges ``sum_i epsilon_i``
        (plus the Lemma-5 surcharge if the rerun strategy re-invokes).

    Examples
    --------
    >>> from repro.core.objectives import LinearRegressionObjective
    >>> from repro.engine.accumulator import MomentAccumulator
    >>> rng = np.random.default_rng(0)
    >>> X = rng.uniform(0, 0.5, size=(5000, 2)); y = np.clip(X @ [0.5, -0.2], -1, 1)
    >>> acc = MomentAccumulator(dim=2).update(X, y)
    >>> engine = EpsilonSweepEngine(LinearRegressionObjective(dim=2), acc)
    >>> sweep = engine.sweep([0.1, 0.8, 3.2], rng=0)
    >>> sweep.coefficients.shape
    (3, 2)
    """

    def __init__(
        self,
        objective: RegressionObjective,
        statistics,
        *,
        tight_sensitivity: bool = False,
        post_processing: str | PostProcessingStrategy = "spectral",
        ridge_lambda: float = 0.0,
        budget: Optional[PrivacyBudget] = None,
    ) -> None:
        self.objective = objective
        if isinstance(statistics, QuadraticForm):
            # Shared-moment fast path: the coefficients were aggregated
            # elsewhere (runtime moment cache, a sibling engine, a stored
            # snapshot) — copy so later sweeps can't be perturbed through
            # the caller's reference.
            self._form: QuadraticForm = statistics.copy()
        else:
            self._form = statistics.quadratic_form(objective)
        self._sensitivity = objective.sensitivity(tight=tight_sensitivity)
        self._strategy = get_strategy(post_processing)
        self._ridge_lambda = float(ridge_lambda)
        self._budget = budget

    # ------------------------------------------------------------------
    @property
    def form(self) -> QuadraticForm:
        """The exact (pre-noise) database-level objective."""
        return self._form.copy()

    @property
    def sensitivity(self) -> float:
        """The Lemma-1 sensitivity Delta used to scale every sweep point."""
        return self._sensitivity

    @staticmethod
    def _validate_epsilons(epsilons: Sequence[float]) -> list[float]:
        values = [float(e) for e in epsilons]
        if not values:
            raise InvalidBudgetError("epsilon sweep needs at least one value")
        for e in values:
            if not math.isfinite(e) or e <= 0.0:
                raise InvalidBudgetError(f"epsilon must be positive and finite, got {e!r}")
        return values

    def _fit_one(
        self, epsilon: float, raw_row: np.ndarray, gen: np.random.Generator
    ) -> SweepPoint:
        """Map one standardized-draw row to a released parameter."""
        with active_recorder().span("engine.fit_one", epsilon=epsilon) as span:
            d = self._form.dim
            scale = self._sensitivity / epsilon
            noisy_M, noisy_alpha = fm_noise_stack(
                self._form.M, self._form.alpha, raw_row[None], np.array([scale])
            )
            noisy = QuadraticForm(
                M=noisy_M[0],
                alpha=noisy_alpha[0],
                beta=self._form.beta + scale * float(raw_row[0]),
            )
            record = PerturbationRecord(
                epsilon=epsilon,
                sensitivity=self._sensitivity,
                noise_scale=scale,
                noise_std=math.sqrt(2.0) * scale,
                coefficients_perturbed=1 + d + d * (d + 1) // 2,
            )
            if self._ridge_lambda:
                noisy = noisy.with_ridge(self._ridge_lambda)

            def renoise() -> QuadraticForm:
                redrawn, _ = FunctionalMechanism(epsilon, rng=gen).perturb_quadratic(
                    self._form, self._sensitivity
                )
                return redrawn.with_ridge(self._ridge_lambda) if self._ridge_lambda else redrawn

            result = self._strategy.solve(noisy, record.noise_std, renoise=renoise)
            if result.privacy_cost_factor > 1.0 and self._budget is not None:
                self._budget.spend(
                    epsilon * (result.privacy_cost_factor - 1.0),
                    note="Lemma-5 rerun surcharge (sweep)",
                )
        return SweepPoint(
            epsilon=epsilon,
            omega=result.omega,
            record=record,
            post=result,
            solve_seconds=span.seconds,
        )

    def sweep(self, epsilons: Sequence[float], rng: RngLike = None) -> EpsilonSweepResult:
        """Release one fitted model per epsilon from a single noise sample.

        The Laplace draws are vectorized across the sweep axis — one
        ``(n_eps, 1 + d + d^2)`` standardized sample — while each row stays
        an independent Algorithm-1 invocation at its own scale.

        With the default spectral repair, the noise mapping and all repairs
        and solves additionally run through the stacked runtime kernels
        (:mod:`repro.runtime.kernels`): one batched eigendecomposition and
        one batched closed-form solve for the whole sweep, bitwise
        identical to the per-epsilon loop.  Strategies that may consume
        extra stream on demand (Lemma-5 rerun) or carry custom solve logic
        keep the per-point loop.
        """
        values = self._validate_epsilons(epsilons)
        gen = ensure_rng(rng)
        d = self._form.dim
        raw = gen.laplace(0.0, 1.0, size=(len(values), 1 + d + d * d))
        active_recorder().counter("engine.laplace_draws", len(values) * (1 + d + d * d))
        return self.sweep_from_draws(values, raw, rng=gen)

    def sweep_from_draws(
        self, epsilons: Sequence[float], raw: np.ndarray, rng: RngLike = None
    ) -> EpsilonSweepResult:
        """Release a sweep from an externally supplied standardized sample.

        ``raw`` must be the ``(n_eps, 1 + d + d^2)`` standardized Laplace
        sample :meth:`sweep` would have drawn itself — the federated
        local-noise-share mode reconstructs exactly that sample bitwise
        from the parties' additive shares and injects it here, so the
        coordinator's fit matches the central-noise fit bit for bit
        without the coordinator ever drawing the noise.  The caller owns
        the privacy argument for how ``raw`` was produced; the engine
        still charges the attached budget per epsilon like :meth:`sweep`.
        ``rng`` is only consulted by strategies that draw extra stream on
        demand (the Lemma-5 rerun).
        """
        values = self._validate_epsilons(epsilons)
        d = self._form.dim
        raw = np.asarray(raw, dtype=float)
        expected = (len(values), 1 + d + d * d)
        if raw.shape != expected:
            raise InvalidBudgetError(
                f"injected noise sample has shape {raw.shape}, "
                f"expected {expected} for {len(values)} epsilons at dim {d}"
            )
        if self._budget is not None:
            for epsilon in values:
                self._budget.spend(epsilon, note=f"EpsilonSweepEngine eps={epsilon:g}")
        if type(self._strategy) is SpectralTrimming:
            return self._sweep_batched(values, raw)
        gen = ensure_rng(rng)
        points = [self._fit_one(epsilon, raw[i], gen) for i, epsilon in enumerate(values)]
        return EpsilonSweepResult(epsilons=tuple(values), points=tuple(points))

    def _sweep_batched(
        self, values: list[float], raw: np.ndarray
    ) -> EpsilonSweepResult:
        """All sweep points as one stacked perturb-repair-solve."""
        with active_recorder().span("engine.sweep_batched", points=len(values)) as span:
            d = self._form.dim
            epsilons = np.asarray(values, dtype=float)
            scales = self._sensitivity / epsilons
            noisy_M, noisy_alpha = fm_noise_stack(self._form.M, self._form.alpha, raw, scales)
            if self._ridge_lambda:
                noisy_M = noisy_M + self._ridge_lambda * np.eye(d)
            noise_std = math.sqrt(2.0) * scales
            solved = spectral_solve_stack(
                noisy_M,
                noisy_alpha,
                noise_std,
                multiplier=self._strategy.multiplier,
                eigen_tol=self._strategy.eigen_tol,
                noise_relative_tol=self._strategy.noise_relative_tol,
            )
        share = span.seconds / len(values)
        points = []
        for i, epsilon in enumerate(values):
            record = PerturbationRecord(
                epsilon=epsilon,
                sensitivity=self._sensitivity,
                noise_scale=float(scales[i]),
                noise_std=float(noise_std[i]),
                coefficients_perturbed=1 + d + d * (d + 1) // 2,
            )
            post = PostProcessResult(
                omega=solved.omega[i],
                strategy=self._strategy.name,
                lam=float(solved.lam[i]),
                trimmed=int(solved.trimmed[i]),
                repaired=bool(solved.repaired[i]),
            )
            points.append(
                SweepPoint(
                    epsilon=epsilon,
                    omega=solved.omega[i],
                    record=record,
                    post=post,
                    solve_seconds=share,
                )
            )
        return EpsilonSweepResult(epsilons=tuple(values), points=tuple(points))

    def variance_estimate(
        self, epsilons: Sequence[float], repeats: int = 20, rng: RngLike = None
    ) -> SweepVariance:
        """Repeated-draw coefficient spread at each epsilon (for error bars).

        Performs ``repeats`` independent sweeps from one vectorized
        ``(repeats, n_eps, 1 + d + d^2)`` sample — still zero data passes.
        Each repeat is a genuine release: with a budget accountant attached,
        all ``repeats * sum_i epsilon_i`` is charged.
        """
        repeats = int(repeats)
        if repeats < 2:
            raise InvalidBudgetError(f"variance estimation needs repeats >= 2, got {repeats}")
        values = self._validate_epsilons(epsilons)
        gen = ensure_rng(rng)
        d = self._form.dim
        raw = gen.laplace(0.0, 1.0, size=(repeats, len(values), 1 + d + d * d))
        active_recorder().counter(
            "engine.laplace_draws", repeats * len(values) * (1 + d + d * d)
        )
        samples = np.empty((repeats, len(values), d))
        for r in range(repeats):
            for i, epsilon in enumerate(values):
                if self._budget is not None:
                    self._budget.spend(
                        epsilon, note=f"EpsilonSweepEngine variance eps={epsilon:g}"
                    )
                samples[r, i] = self._fit_one(epsilon, raw[r, i], gen).omega
        return SweepVariance(
            epsilons=tuple(values),
            repeats=repeats,
            mean=samples.mean(axis=0),
            std=samples.std(axis=0),
        )
