"""Equi-width multi-dimensional grid histograms.

The two synthetic-data baselines (DPME, Filter-Priority) both discretize the
joint ``(x, y)`` domain into a grid, release noisy cell counts, and
regenerate data.  This module is their shared substrate:

* :class:`Grid` — an equi-width partition of a box ``[lower, upper]^dims``
  with per-dimension bin counts, supporting point->cell indexing, cell
  centers, and uniform sampling within cells;
* :func:`histogram_counts` — exact counts per cell;
* :func:`choose_bins_per_dim` — Lei-style granularity rule with a global
  cell-budget cap.  The rule coarsens as dimensionality grows, which is
  precisely the effect the paper blames for DPME's poor accuracy at
  ``d = 11, 14`` (Figure 4).

Counts use the *replace-one* neighbor convention of the paper: replacing a
tuple moves one unit of count between (at most) two cells, so the L1
sensitivity of the full count vector is 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..exceptions import DataError, DomainError
from ..privacy.rng import RngLike, ensure_rng

__all__ = [
    "Grid",
    "histogram_counts",
    "choose_bins_per_dim",
    "COUNT_SENSITIVITY",
]

#: L1 sensitivity of a cell-count vector under replace-one neighbors.
COUNT_SENSITIVITY = 2.0

#: Default upper bound on the total number of grid cells.
DEFAULT_CELL_BUDGET = 1 << 17


@dataclass(frozen=True)
class Grid:
    """An equi-width grid over the box ``prod_j [lower_j, upper_j]``.

    Parameters
    ----------
    lower, upper:
        Box bounds per dimension (upper strictly greater than lower).
    bins_per_dim:
        Number of equal-width bins in each dimension (>= 1).
    """

    lower: np.ndarray
    upper: np.ndarray
    bins_per_dim: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "lower", np.asarray(self.lower, dtype=float).ravel())
        object.__setattr__(self, "upper", np.asarray(self.upper, dtype=float).ravel())
        object.__setattr__(
            self, "bins_per_dim", np.asarray(self.bins_per_dim, dtype=int).ravel()
        )
        if not (self.lower.shape == self.upper.shape == self.bins_per_dim.shape):
            raise DataError("lower, upper and bins_per_dim must have equal length")
        if np.any(self.upper <= self.lower):
            raise DomainError("grid requires upper > lower in every dimension")
        if np.any(self.bins_per_dim < 1):
            raise DataError("bins_per_dim must be >= 1 everywhere")

    @property
    def dims(self) -> int:
        """Number of grid dimensions."""
        return self.lower.shape[0]

    @property
    def total_cells(self) -> int:
        """Total number of cells ``prod_j bins_j``."""
        return int(np.prod(self.bins_per_dim.astype(object)))

    @property
    def cell_widths(self) -> np.ndarray:
        """Per-dimension cell width."""
        return (self.upper - self.lower) / self.bins_per_dim

    def cell_indices(self, points: np.ndarray) -> np.ndarray:
        """Flat cell index (C-order) for each row of ``points``.

        Points on the upper boundary fall into the last bin; points outside
        the box raise :class:`~repro.exceptions.DomainError` (baselines
        operate on normalized data whose domain is declared up front, so an
        out-of-box point is a pipeline bug, not something to clip silently).
        """
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.dims:
            raise DataError(
                f"points must be 2-d with {self.dims} columns, got shape {points.shape}"
            )
        tol = 1e-9
        below = points < self.lower - tol
        above = points > self.upper + tol
        if below.any() or above.any():
            raise DomainError("points fall outside the declared grid box")
        fractions = (points - self.lower) / (self.upper - self.lower)
        per_dim = np.minimum(
            (fractions * self.bins_per_dim).astype(int), self.bins_per_dim - 1
        )
        per_dim = np.maximum(per_dim, 0)
        return np.ravel_multi_index(per_dim.T, tuple(self.bins_per_dim))

    def cell_center(self, flat_index: np.ndarray | int) -> np.ndarray:
        """Center coordinates of one or many flat cell indices."""
        flat = np.atleast_1d(np.asarray(flat_index, dtype=int))
        if flat.size and (flat.min() < 0 or flat.max() >= self.total_cells):
            raise DataError("flat cell index out of range")
        per_dim = np.array(np.unravel_index(flat, tuple(self.bins_per_dim))).T
        centers = self.lower + (per_dim + 0.5) * self.cell_widths
        return centers if np.ndim(flat_index) else centers[0]

    def sample_in_cells(
        self, flat_indices: np.ndarray, rng: RngLike = None
    ) -> np.ndarray:
        """Draw one uniform point inside each given cell.

        The per-row reference for points synthesis, which unravels each
        occupied cell once and must reproduce these rows bit for bit.
        """
        gen = ensure_rng(rng)
        flat = np.asarray(flat_indices, dtype=int)
        per_dim = np.array(np.unravel_index(flat, tuple(self.bins_per_dim))).T
        offsets = gen.uniform(0.0, 1.0, size=per_dim.shape)
        return self.lower + (per_dim + offsets) * self.cell_widths


def histogram_counts(grid: Grid, points: np.ndarray) -> np.ndarray:
    """Exact per-cell counts of ``points`` as a flat int64 vector."""
    indices = grid.cell_indices(points)
    return np.bincount(indices, minlength=grid.total_cells).astype(np.int64)


def choose_bins_per_dim(
    n: int,
    dims: int,
    cell_budget: int = DEFAULT_CELL_BUDGET,
    binary_dims: np.ndarray | None = None,
) -> np.ndarray:
    """Lei-style histogram granularity with a global cell cap.

    The DPME paper picks a bandwidth shrinking like ``(log n / n)^(1/(d+2))``;
    in bin terms we use ``m = round((n / log n)^(1/(dims + 2)))`` bins per
    continuous dimension, then repeatedly halve ``m`` until the total cell
    count fits the budget.  ``binary_dims`` marks dimensions (e.g. a boolean
    target or 0/1 attributes) that always get exactly 2 bins.

    The net effect reproduced here: with ``n`` fixed, growing ``dims`` forces
    coarser bins — the histogram's resolution collapses and the synthetic
    data (and thus DPME's regression accuracy) degrades, as in Figure 4.
    """
    n = int(n)
    dims = int(dims)
    if n < 1 or dims < 1:
        raise DataError(f"need n >= 1 and dims >= 1, got n={n}, dims={dims}")
    if cell_budget < 2**dims:
        # Even 2 bins everywhere overflows: fall back to 1-bin dims where
        # needed below.
        pass
    mask = np.zeros(dims, dtype=bool)
    if binary_dims is not None:
        mask = np.asarray(binary_dims, dtype=bool).ravel()
        if mask.shape[0] != dims:
            raise DataError("binary_dims must have one flag per dimension")
    m = max(2, int(round((n / max(math.log(n), 1.0)) ** (1.0 / (dims + 2)))))
    while True:
        bins = np.where(mask, 2, m)
        total = int(np.prod(bins.astype(object)))
        if total <= cell_budget or m == 1:
            break
        m = max(1, m // 2)
    if total > cell_budget:
        # Pathological dims: drop binary dims to 1 bin as a last resort.
        bins = np.ones(dims, dtype=int)
    return bins.astype(int)
