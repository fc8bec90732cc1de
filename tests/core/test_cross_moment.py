"""``-2 X^T y`` without the scaled ``n x d`` copy, bit for bit.

``LinearRegressionObjective.aggregate_quadratic`` once wrote
``-2.0 * X.T @ y``, which numpy parses as ``(-2.0 * X.T) @ y``: a scaled
copy of the whole design before one GEMV.  These tests keep that
expression as the byte-level reference for
:func:`~repro.core.objectives.scaled_cross_moment`, and guard the
aggregation's peak allocation so the temporary cannot come back.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.objectives import (
    LinearRegressionObjective,
    LogisticRegressionObjective,
    scaled_cross_moment,
)

#: Row counts on both sides of OpenBLAS's GEMV blocking.
SIZES = (1, 2, 3, 7, 64, 255, 256, 1000, 4096, 65537, 300_000)


def _reference(scale, X, y):
    return scale * X.T @ y  # parsed as (scale * X.T) @ y — the old expression


def _inputs(n, d, seed):
    gen = np.random.default_rng(seed)
    X = gen.uniform(0.0, 1.0 / np.sqrt(d), size=(n, d))
    y = gen.uniform(-1.0, 1.0, size=n)
    zero_rows = X.copy()
    zero_rows[::3] = 0.0
    wide = gen.uniform(0.0, 1.0 / np.sqrt(d), size=(2 * n, 2 * d))
    return {
        "dense": (X, y),
        "y=+-1": (X, np.where(y >= 0.0, 1.0, -1.0)),
        "zero rows": (zero_rows, y),
        "all zero": (np.zeros_like(X), y),
        "float32": (X.astype(np.float32).astype(np.float64), y.astype(np.float32)),
        "fortran": (np.asfortranarray(X), y),
        "strided columns": (wide[:n, ::2], y),
        "strided rows": (wide[::2, :d], y),
        "reversed": (wide[:n, :d][::-1], np.repeat(y, 2)[::2]),
    }


class TestBitExact:
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("d", [1, 13])
    @pytest.mark.parametrize("scale", [-2.0, 2.0])
    def test_matches_scaled_copy_gemv(self, n, d, scale):
        for case, (X, y) in _inputs(n, d, seed=n * 31 + d).items():
            X = np.asarray(X, dtype=float)
            y = np.asarray(y, dtype=float)
            got = scaled_cross_moment(scale, X, y)
            want = _reference(scale, X, y)
            assert got.dtype == want.dtype and got.shape == want.shape, case
            assert got.tobytes() == want.tobytes(), case

    @pytest.mark.parametrize("n", SIZES)
    def test_linear_alpha_matches_old_expression(self, n):
        for case, (X, y) in _inputs(n, 13, seed=n).items():
            alpha = LinearRegressionObjective(13).aggregate_quadratic(X, y).alpha
            # The objective's own input coercion, then the old expression.
            X64 = np.asarray(X, dtype=float)
            y64 = np.asarray(y, dtype=float).ravel()
            assert alpha.tobytes() == _reference(-2.0, X64, y64).tobytes(), case


class TestNoDesignSizedTemporary:
    """CI guard: aggregation allocates far less than a copy of ``X``."""

    @pytest.mark.parametrize(
        "objective",
        [LinearRegressionObjective(13), LogisticRegressionObjective(13)],
        ids=["linear", "logistic"],
    )
    def test_peak_allocation_below_quarter_of_design(self, objective):
        gen = np.random.default_rng(5)
        X = gen.uniform(0.0, 1.0 / np.sqrt(13), size=(100_000, 13))
        y = gen.integers(0, 2, size=100_000).astype(np.float64)
        objective.aggregate_quadratic(X, y)  # warm numpy/BLAS outside the trace
        tracemalloc.start()
        try:
            objective.aggregate_quadratic(X, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < X.nbytes / 4, f"peak {peak} B vs X {X.nbytes} B"
