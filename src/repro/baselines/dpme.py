"""DPME — Lei's differentially private M-estimators (NIPS 2011).

The paper's strongest private competitor.  The pipeline (Section 2 of the
paper describes it):

1. Lay an equi-width grid over the joint ``(x, y)`` domain, with granularity
   shrinking in ``n`` and growing coarser in ``d`` (Lei's bandwidth rule —
   see :func:`~repro.baselines.histogram.choose_bins_per_dim`).
2. Release every cell count with ``Lap(2 / epsilon)`` noise (replace-one
   count sensitivity is 2).  This is the *only* step that touches the data,
   so the whole pipeline is ``epsilon``-DP.
3. Generate a synthetic dataset matching the noisy histogram.  By default
   the rows are materialized as the original method does: each cell emits
   its rounded, clamped noisy count of points drawn uniformly inside it, so
   the synthetic size grows with the count-noise mass as ``epsilon``
   shrinks.  ``synthesis_mode="weighted"`` regresses on noisy-count-weighted
   cell centers instead (see :mod:`~repro.baselines.synthesize`).
4. Run ordinary (non-private) regression on the synthetic data.

The dimensionality curse the paper highlights emerges naturally: at fixed
``n``, more attributes force coarser bins *and* spread the Laplace noise
over exponentially more cells, so the synthetic data — and the regression
fitted to it — degrade sharply with ``d`` (Figure 4's DPME lines).
"""

from __future__ import annotations

import numpy as np

from ..exceptions import DataError
from ..privacy.laplace import laplace_noise
from ..privacy.rng import RngLike, ensure_rng
from ..regression.linear import LinearRegression
from ..regression.logistic import LogisticRegressionModel, sigmoid
from .base import BaselineRegressor, Task, register_algorithm
from .histogram import (
    COUNT_SENSITIVITY,
    DEFAULT_CELL_BUDGET,
    Grid,
    choose_bins_per_dim,
    histogram_counts,
)
from .synthesize import SyntheticData, synthesize_from_counts

__all__ = ["DPME", "build_joint_grid", "fit_on_synthetic"]

#: Tiny ridge applied when fitting on synthetic data; noisy histograms often
#: produce separable or rank-deficient synthetic sets and the original
#: estimators would silently blow up.
_SYNTHETIC_FIT_L2 = 1e-8


def build_joint_grid(
    n: int,
    num_features: int,
    task: Task,
    cell_budget: int = DEFAULT_CELL_BUDGET,
) -> Grid:
    """The joint ``(x, y)`` grid both histogram baselines share.

    Features occupy ``[0, 1/sqrt(d)]`` each (footnote-1 normalization); the
    target is the **last** dimension: ``[-1, 1]`` for linear regression or a
    2-bin ``[0, 1]`` binary dimension for logistic.
    """
    d = int(num_features)
    width = 1.0 / np.sqrt(d)
    lower = np.concatenate([np.zeros(d), [-1.0 if task == "linear" else 0.0]])
    upper = np.concatenate([np.full(d, width), [1.0]])
    binary = np.zeros(d + 1, dtype=bool)
    if task == "logistic":
        binary[-1] = True
    bins = choose_bins_per_dim(n, d + 1, cell_budget=cell_budget, binary_dims=binary)
    return Grid(lower=lower, upper=upper, bins_per_dim=bins)


def fit_on_synthetic(synthetic: SyntheticData, task: Task, dim: int) -> np.ndarray:
    """Fit the task's standard model on synthetic data; returns the weights.

    A synthetic release with no mass (all noisy counts clamped to zero)
    yields the zero parameter — the least-informative but always-defined
    answer.
    """
    if synthetic.effective_size <= 0.0:
        return np.zeros(dim)
    # Unit weights (points mode) change nothing: sqrt(1.0) and x * 1.0 are
    # exact, so the unweighted fits give the same bits without the n x d
    # weighted copy and the per-evaluation multiply.
    weights = None if np.all(synthetic.weights == 1.0) else synthetic.weights
    if task == "linear":
        model = LinearRegression().fit(synthetic.X, synthetic.y, sample_weight=weights)
        return model.coef_
    labels = (synthetic.y > 0.5).astype(float)
    if np.unique(labels).size < 2:
        # Single-class synthetic data: the MLE direction is undefined; the
        # zero parameter predicts 0.5 everywhere, which is the honest output.
        return np.zeros(dim)
    model = LogisticRegressionModel(l2=_SYNTHETIC_FIT_L2).fit(
        synthetic.X, labels, sample_weight=weights
    )
    return model.coef_


@register_algorithm("DPME")
class DPME(BaselineRegressor):
    """Lei (2011): noisy multi-dimensional histogram -> synthetic data -> fit.

    Parameters
    ----------
    task:
        ``"linear"`` or ``"logistic"``.
    epsilon:
        Privacy budget; fully spent on the histogram release.
    cell_budget:
        Global cap on grid cells (memory guard; the granularity rule rarely
        hits it below ``d ~ 16``).
    rng:
        Seed or generator for the count noise.
    """

    is_private = True

    def __init__(
        self,
        task: Task,
        epsilon: float,
        rng: RngLike = None,
        cell_budget: int = DEFAULT_CELL_BUDGET,
        synthesis_mode: str = "points",
        placement: str = "uniform",
    ) -> None:
        super().__init__(task)
        self.epsilon = float(epsilon)
        self.cell_budget = int(cell_budget)
        # "points" materializes the synthetic dataset row by row as the
        # original method does (this is what makes DPME's runtime grow with
        # n and d in Figures 7-8); "weighted" is the O(cells) equivalent for
        # fast test runs.
        self.synthesis_mode = synthesis_mode
        self.placement = placement
        self._rng = ensure_rng(rng)
        self.grid_: Grid | None = None
        self.synthetic_size_: float | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DPME":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        if X.ndim != 2 or X.shape[0] == 0:
            raise DataError(f"X must be a non-empty 2-d matrix, got shape {X.shape}")
        n, d = X.shape
        grid = build_joint_grid(n, d, self.task, cell_budget=self.cell_budget)
        counts = histogram_counts(grid, np.hstack([X, y[:, None]]))
        noisy = counts + laplace_noise(
            COUNT_SENSITIVITY, self.epsilon, size=counts.shape, rng=self._rng
        )
        synthetic = synthesize_from_counts(
            grid, noisy, mode=self.synthesis_mode, placement=self.placement, rng=self._rng
        )
        self.coef_ = fit_on_synthetic(synthetic, self.task, d)
        self.grid_ = grid
        self.synthetic_size_ = synthetic.effective_size
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        coef = self._require_fitted()
        X = np.asarray(X, dtype=float)
        scores = X @ coef
        if self.task == "linear":
            return scores
        return (sigmoid(scores) > 0.5).astype(float)
