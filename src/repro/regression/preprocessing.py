"""Data normalization and resampling per the paper's conventions.

Footnote 1 of the paper assumes every feature vector satisfies
``||x_i||_2 <= 1``, enforced by rescaling each attribute as

    x_ij  ->  (x_ij - alpha_j) / ((beta_j - alpha_j) * sqrt(d)),

where ``[alpha_j, beta_j]`` is the *declared domain* of attribute ``X_j``
(not the realized min/max of the data — deriving bounds from the data would
itself leak, so :class:`FeatureScaler` takes explicit bounds and only offers
data-derived bounds behind an explicitly non-private constructor).
Definition 1 additionally assumes the regression target lies in ``[-1, 1]``
(:class:`TargetScaler`), and Definition 2 assumes a boolean target
(:func:`binarize_labels`).

The module also provides the 5-fold cross-validation used throughout
Section 7 (:class:`KFold`) and a simple :func:`train_test_split`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..exceptions import DataError, DomainError
from ..privacy.rng import RngLike, ensure_rng

__all__ = [
    "FeatureScaler",
    "TargetScaler",
    "binarize_labels",
    "train_test_split",
    "KFold",
    "max_feature_norm",
]


def _as_matrix(X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DataError(f"feature matrix must be 2-d, got ndim={X.ndim}")
    return X


@dataclass
class FeatureScaler:
    """Footnote-1 feature normalization onto the unit L2 ball.

    Parameters
    ----------
    lower, upper:
        Per-attribute domain bounds ``alpha_j`` and ``beta_j``.  Attributes
        with a degenerate domain (``alpha_j == beta_j``) are mapped to 0.

    After :meth:`transform`, every feature lies in ``[0, 1/sqrt(d)]`` so the
    full vector satisfies ``||x||_2 <= 1`` — the assumption both sensitivity
    bounds (``2(d+1)^2`` and ``d^2/4 + 3d``) rely on.

    Examples
    --------
    >>> scaler = FeatureScaler(lower=np.zeros(4), upper=np.full(4, 10.0))
    >>> X = np.full((2, 4), 10.0)
    >>> bool(np.allclose(np.linalg.norm(scaler.transform(X), axis=1), 1.0))
    True
    """

    lower: np.ndarray
    upper: np.ndarray
    clip: bool = True

    def __post_init__(self) -> None:
        self.lower = np.asarray(self.lower, dtype=float).ravel()
        self.upper = np.asarray(self.upper, dtype=float).ravel()
        if self.lower.shape != self.upper.shape:
            raise DataError("lower and upper bounds must have the same length")
        if np.any(self.upper < self.lower):
            bad = int(np.argmax(self.upper < self.lower))
            raise DomainError(
                f"attribute {bad}: upper bound {self.upper[bad]!r} below lower "
                f"bound {self.lower[bad]!r}"
            )

    @property
    def dim(self) -> int:
        """Number of attributes the scaler was declared for."""
        return self.lower.shape[0]

    @classmethod
    def from_data_non_private(cls, X: np.ndarray, clip: bool = True) -> "FeatureScaler":
        """Derive bounds from the realized data.

        .. warning::
           Data-derived bounds are **not differentially private**.  This
           constructor exists for testing and for the non-private baselines;
           private pipelines must declare domains up front (as the paper's
           IPUMS attributes do).
        """
        X = _as_matrix(X)
        return cls(lower=X.min(axis=0), upper=X.max(axis=0), clip=clip)

    def transform(self, X: np.ndarray) -> np.ndarray:
        """Apply the footnote-1 map; result rows satisfy ``||x||_2 <= 1``."""
        X = _as_matrix(X)
        if X.shape[1] != self.dim:
            raise DataError(
                f"feature matrix has {X.shape[1]} columns; scaler expects {self.dim}"
            )
        span = self.upper - self.lower
        safe_span = np.where(span > 0, span, 1.0)
        scaled = (X - self.lower) / (safe_span * np.sqrt(self.dim))
        scaled = np.where(span > 0, scaled, 0.0)
        if self.clip:
            scaled = np.clip(scaled, 0.0, 1.0 / np.sqrt(self.dim))
        else:
            limit = 1.0 / np.sqrt(self.dim)
            if np.any(scaled < -1e-12) or np.any(scaled > limit + 1e-12):
                raise DomainError(
                    "data fell outside the declared attribute domains and "
                    "clip=False; widen the domains or enable clipping"
                )
        return scaled


@dataclass
class TargetScaler:
    """Map the regression target onto ``[-1, 1]`` (Definition 1) and back.

    ``transform`` maps ``[lower, upper] -> [-1, 1]`` affinely;
    ``inverse_transform`` undoes it, letting examples report errors in the
    original units while the mechanism operates on the normalized scale.
    """

    lower: float
    upper: float
    clip: bool = True

    def __post_init__(self) -> None:
        self.lower = float(self.lower)
        self.upper = float(self.upper)
        if not self.upper > self.lower:
            raise DomainError(
                f"target domain must have upper > lower, got "
                f"[{self.lower!r}, {self.upper!r}]"
            )

    def transform(self, y: np.ndarray) -> np.ndarray:
        """Affinely map ``[lower, upper]`` to ``[-1, 1]``."""
        y = np.asarray(y, dtype=float).ravel()
        scaled = 2.0 * (y - self.lower) / (self.upper - self.lower) - 1.0
        if self.clip:
            scaled = np.clip(scaled, -1.0, 1.0)
        elif np.any(np.abs(scaled) > 1.0 + 1e-12):
            raise DomainError("target fell outside its declared domain and clip=False")
        return scaled

    def inverse_transform(self, y_scaled: np.ndarray) -> np.ndarray:
        """Map ``[-1, 1]`` back to the original target units."""
        y_scaled = np.asarray(y_scaled, dtype=float).ravel()
        return (y_scaled + 1.0) / 2.0 * (self.upper - self.lower) + self.lower


def binarize_labels(y: np.ndarray, threshold: float) -> np.ndarray:
    """Map a numeric target to {0, 1} labels by thresholding.

    The paper's logistic experiments binarize Annual Income this way
    ("values higher than a predefined threshold are mapped to 1").
    """
    y = np.asarray(y, dtype=float).ravel()
    return (y > float(threshold)).astype(float)


def max_feature_norm(X: np.ndarray) -> float:
    """Largest row L2 norm — used by tests to assert footnote-1 compliance."""
    X = _as_matrix(X)
    if X.shape[0] == 0:
        return 0.0
    return float(np.linalg.norm(X, axis=1).max())


def train_test_split(
    n: int,
    test_fraction: float = 0.2,
    rng: RngLike = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Return shuffled (train_indices, test_indices) over ``range(n)``."""
    if n < 2:
        raise DataError(f"need at least 2 samples to split, got {n}")
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction!r}")
    gen = ensure_rng(rng)
    order = gen.permutation(n)
    n_test = max(1, int(round(n * test_fraction)))
    n_test = min(n_test, n - 1)
    return _complement_split(n, order[:n_test])


def _complement_split(n: int, test: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending ``(train, test)`` index vectors for one held-out set.

    Marking ``test`` in a boolean mask and reading both sides back with
    ``flatnonzero`` yields the sorted complement and the sorted test set
    (int64, C-contiguous) in two linear passes, with no sort.
    """
    held_out = np.zeros(n, dtype=bool)
    held_out[test] = True
    return np.flatnonzero(~held_out), np.flatnonzero(held_out)


class KFold:
    """K-fold cross-validation splitter (the paper uses 5 folds, 50 repeats).

    Each fold's test set is the next contiguous slice of one permutation
    of ``range(n)`` (the first ``n % n_splits`` folds one index larger);
    its training set is the complement.  Both index vectors come back
    ascending.

    Parameters
    ----------
    n_splits:
        Number of folds; every index appears in exactly one test fold.
    shuffle:
        Whether to permute indices before folding.
    rng:
        Seed or generator for the shuffle.

    Examples
    --------
    >>> folds = list(KFold(n_splits=5, rng=0).split(100))
    >>> sorted(len(test) for _, test in folds)
    [20, 20, 20, 20, 20]
    """

    def __init__(self, n_splits: int = 5, shuffle: bool = True, rng: RngLike = None) -> None:
        n_splits = int(n_splits)
        if n_splits < 2:
            raise ValueError(f"n_splits must be >= 2, got {n_splits}")
        self.n_splits = n_splits
        self.shuffle = bool(shuffle)
        self._rng = ensure_rng(rng)

    def split(self, n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield ``(train_indices, test_indices)`` for each fold."""
        n = int(n)
        if n < self.n_splits:
            raise DataError(
                f"cannot split {n} samples into {self.n_splits} folds"
            )
        indices = self._rng.permutation(n) if self.shuffle else np.arange(n)
        fold_sizes = np.full(self.n_splits, n // self.n_splits, dtype=int)
        fold_sizes[: n % self.n_splits] += 1
        start = 0
        for size in fold_sizes:
            yield _complement_split(n, indices[start : start + size])
            start += size
