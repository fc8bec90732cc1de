"""The kernels' array input gate, ``canonical_array``.

``canonical_array`` is the plan boundary's dtype gate — identity for
conforming data (cache sharing intact), upcast for narrow floats, loud
rejection for integer/object dtypes (guessing an int column was a
feature is how silent garbage enters a DP release).  Every public
stacked kernel applies it, so float32 or strided inputs give the same
bits as their canonical float64 form.
"""

import numpy as np
import pytest

from repro.exceptions import ExperimentError
from repro.runtime import (
    canonical_array,
    fm_noise_stack,
    newton_logistic_stack,
    spectral_solve_stack,
)


class TestCanonicalArray:
    def test_conforming_input_is_identity(self):
        a = np.zeros((4, 3))
        assert canonical_array(a) is a

    def test_float32_upcasts(self):
        a = np.ones((2, 2), dtype=np.float32)
        out = canonical_array(a)
        assert out.dtype == np.float64
        assert np.array_equal(out, a.astype(np.float64))

    def test_strided_view_becomes_contiguous(self):
        base = np.arange(24, dtype=np.float64).reshape(4, 6)
        view = base[:, ::2]
        out = canonical_array(view)
        assert out.flags["C_CONTIGUOUS"]
        assert np.array_equal(out, view)

    def test_fortran_order_becomes_c_order(self):
        a = np.asfortranarray(np.arange(6, dtype=np.float64).reshape(2, 3))
        out = canonical_array(a)
        assert out.flags["C_CONTIGUOUS"]
        assert np.array_equal(out, a)

    @pytest.mark.parametrize("bad", [np.arange(4), np.array(["x", "y"], dtype=object)])
    def test_integer_and_object_dtypes_rejected(self, bad):
        with pytest.raises(ExperimentError, match="dtype"):
            canonical_array(bad, "demo")


class TestKernelCanonicalization:
    """Satellite pin: kernels fed float32/strided inputs match canonical."""

    def _quad_stack(self, dtype=np.float64, strided=False):
        rng = np.random.default_rng(7)
        B, d = 4, 3
        A = rng.normal(size=(B, d, d))
        M = (A @ A.transpose(0, 2, 1) + 3.0 * np.eye(d)).astype(dtype)
        alpha = rng.normal(size=(B, d)).astype(dtype)
        noise_std = np.full(B, 0.25, dtype=dtype)
        if strided:
            M2 = np.repeat(M, 2, axis=0)[::2]
            assert not M2.flags["C_CONTIGUOUS"] or M2.base is not None
            M = np.asarray(M2)
        return M, alpha, noise_std

    def test_spectral_solve_float32_matches_upcast(self):
        M, alpha, noise_std = self._quad_stack(np.float32)
        narrow = spectral_solve_stack(M, alpha, noise_std)
        wide = spectral_solve_stack(
            M.astype(np.float64), alpha.astype(np.float64),
            noise_std.astype(np.float64),
        )
        assert np.array_equal(narrow.omega, wide.omega)

    def test_spectral_solve_strided_matches_contiguous(self):
        M, alpha, noise_std = self._quad_stack()
        doubled = np.repeat(M, 2, axis=0)
        strided = doubled[::2]
        assert np.array_equal(strided, M)
        a = spectral_solve_stack(strided, alpha, noise_std)
        b = spectral_solve_stack(np.ascontiguousarray(strided), alpha, noise_std)
        assert np.array_equal(a.omega, b.omega)

    def test_fm_noise_stack_rejects_integer_raw(self):
        M, alpha, _ = self._quad_stack()
        raw = np.zeros((2, 1 + 3 + 9), dtype=np.int64)
        with pytest.raises(ExperimentError, match="dtype"):
            fm_noise_stack(M, alpha, raw, np.array([1.0, 2.0]))

    def test_newton_rejects_integer_labels(self):
        X = np.zeros((8, 2))
        y = np.zeros(8, dtype=np.int64)
        folds = np.array([[True] * 8])
        with pytest.raises(ExperimentError, match="dtype"):
            newton_logistic_stack(X, y, folds, np.zeros((1, 2)))
