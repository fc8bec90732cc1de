"""Regenerating data from noisy histogram counts.

Both DPME and Filter-Priority end with the same move: a vector of noisy cell
counts over the joint ``(x, y)`` grid is turned back into a dataset that any
(non-private) regression can consume.  Two materializations are offered:

``points``
    Explicit rows: each retained cell emits ``count`` points, either at the
    cell center or uniformly within the cell.  DPME and FP default to
    ``points``/``uniform``, as the original methods do, so the synthetic
    size is the total retained noisy mass: it grows with the count-noise
    mass as epsilon shrinks (at 16k training rows on a 2^14-cell grid,
    from about 20k rows at epsilon=3.2 to about 177k at epsilon=0.1).

``weighted``
    One representative point per retained cell — its center — with the
    rounded noisy count as a sample weight.  Mathematically identical to
    ``points``/``center`` for both weighted least squares and weighted
    logistic MLE, but O(cells) instead of O(sum of counts); this mirrors
    how Lei's M-estimator consumes the histogram directly.

Negative noisy counts are clamped to zero and fractional counts are rounded
— standard post-processing that costs no privacy budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from ..exceptions import DataError
from ..privacy.rng import RngLike, ensure_rng
from .histogram import Grid

__all__ = ["SyntheticData", "synthesize_from_counts"]

#: Hard cap on materialized synthetic rows (mode="points"); prevents a
#: pathological noise draw from exhausting memory.
_MAX_POINTS = 5_000_000


@dataclass(frozen=True)
class SyntheticData:
    """A synthetic dataset in split ``(X, y, weight)`` form.

    ``X`` holds the feature columns, ``y`` the target column (the last grid
    dimension), both C-contiguous; ``weights`` the per-row multiplicity
    (all ones in ``points`` mode).
    """

    X: np.ndarray
    y: np.ndarray
    weights: np.ndarray

    @property
    def effective_size(self) -> float:
        """Total synthetic mass ``sum(weights)``."""
        return float(self.weights.sum())


def synthesize_from_counts(
    grid: Grid,
    noisy_counts: np.ndarray,
    mode: Literal["weighted", "points"] = "weighted",
    placement: Literal["center", "uniform"] = "center",
    rng: RngLike = None,
) -> SyntheticData:
    """Turn noisy counts over a joint ``(x, y)`` grid into a dataset.

    Parameters
    ----------
    grid:
        The joint grid; its **last dimension is the target** ``y``.
    noisy_counts:
        Flat count vector (length ``grid.total_cells``); negatives are
        clamped, fractions rounded to the nearest integer.
    mode:
        ``"weighted"`` or ``"points"`` (see module docstring).
    placement:
        Where points land inside their cell (``points`` mode only).
    """
    if mode not in ("weighted", "points"):
        raise ValueError(f"mode must be 'weighted' or 'points', got {mode!r}")
    if placement not in ("center", "uniform"):
        raise ValueError(f"placement must be 'center' or 'uniform', got {placement!r}")
    counts = np.asarray(noisy_counts, dtype=float).ravel()
    if counts.shape[0] != grid.total_cells:
        raise DataError(
            f"count vector has length {counts.shape[0]}; grid has "
            f"{grid.total_cells} cells"
        )
    counts = np.round(np.maximum(counts, 0.0)).astype(np.int64)
    occupied = np.nonzero(counts)[0]
    if occupied.size == 0:
        # Degenerate release: no mass anywhere.  Return a single zero-weight
        # row at the grid center so downstream shape logic survives; callers
        # check effective_size before fitting.
        center = grid.cell_center(grid.total_cells // 2)
        return SyntheticData(
            X=center[None, :-1], y=center[None, -1].ravel(), weights=np.zeros(1)
        )
    repeats = counts[occupied]
    if mode == "weighted":
        rows = grid.cell_center(occupied)
        weights = repeats.astype(float)
    else:
        rows = _points(grid, occupied, repeats, placement, rng)
        weights = np.ones(rows.shape[0])
    # C-contiguous columns: the fits' BLAS calls see one operand layout.
    return SyntheticData(
        X=np.ascontiguousarray(rows[:, :-1]),
        y=np.ascontiguousarray(rows[:, -1]),
        weights=weights,
    )


def _points(
    grid: Grid,
    occupied: np.ndarray,
    repeats: np.ndarray,
    placement: str,
    rng: RngLike,
) -> np.ndarray:
    """``repeats[i]`` joint rows in each cell ``occupied[i]``, in cell order.

    Each occupied cell is unravelled once and its coordinates repeated by
    its count; every element gets the arithmetic of
    :meth:`Grid.cell_center` or :meth:`Grid.sample_in_cells` over the
    repeated flat indices, so the rows are theirs bit for bit.
    """
    total = int(repeats.sum())
    if total > _MAX_POINTS:
        raise DataError(
            f"synthetic dataset would have {total} rows (cap {_MAX_POINTS}); "
            f"use mode='weighted'"
        )
    if placement == "center":
        return np.repeat(grid.cell_center(occupied), repeats, axis=0)
    coords = np.array(np.unravel_index(occupied, tuple(grid.bins_per_dim))).T
    rows = ensure_rng(rng).uniform(0.0, 1.0, size=(total, grid.dims))
    rows += np.repeat(coords, repeats, axis=0)
    rows *= grid.cell_widths
    rows += grid.lower
    return rows
