"""Tests for the cell planner."""

import numpy as np
import pytest

from repro.exceptions import ExperimentError
from repro.experiments.config import SMOKE
from repro.runtime import (
    KERNEL_GENERIC,
    KERNEL_NEWTON,
    KERNEL_QUADRATIC,
    PlannedFold,
    classify_kernel,
    plan_cells,
)


class TestClassifyKernel:
    @pytest.mark.parametrize(
        "algorithm,task,kwargs,expected",
        [
            ("FM", "linear", {}, KERNEL_QUADRATIC),
            ("FM", "logistic", {}, KERNEL_QUADRATIC),
            ("FM", "linear", {"tight_sensitivity": True}, KERNEL_QUADRATIC),
            ("FM", "logistic", {"approximation": "chebyshev"}, KERNEL_QUADRATIC),
            # Logistic-only kwargs on a linear plan are NOT batchable: the
            # generic path surfaces the same TypeError the estimator raises.
            ("FM", "linear", {"approximation": "chebyshev"}, KERNEL_GENERIC),
            ("FM", "linear", {"order": 2}, KERNEL_GENERIC),
            ("FM", "linear", {"ridge_lambda": 0.5}, KERNEL_QUADRATIC),
            ("FM", "linear", {"post_processing": "rerun"}, KERNEL_GENERIC),
            ("FM", "linear", {"post_processing": "regularize"}, KERNEL_GENERIC),
            ("FM", "logistic", {"order": 4}, KERNEL_GENERIC),
            ("FM", "linear", {"fit_intercept": True}, KERNEL_GENERIC),
            ("NoPrivacy", "linear", {}, KERNEL_QUADRATIC),
            ("NoPrivacy", "logistic", {}, KERNEL_NEWTON),
            ("Truncated", "linear", {}, KERNEL_QUADRATIC),
            ("Truncated", "logistic", {}, KERNEL_QUADRATIC),
            ("DPME", "linear", {}, KERNEL_GENERIC),
            ("FP", "logistic", {}, KERNEL_GENERIC),
        ],
    )
    def test_classification(self, algorithm, task, kwargs, expected):
        assert classify_kernel(algorithm, task, kwargs) == expected


class TestPlanCells:
    def test_structure(self, us):
        plan = plan_cells(
            "FM", us, "linear", dims=5, epsilons=[0.8, 3.2], preset=SMOKE, seed=0
        )
        assert len(plan.folds) == SMOKE.folds * SMOKE.repetitions
        assert plan.n_cells == len(plan.folds) * 2
        assert plan.kernel == KERNEL_QUADRATIC
        # dims selects the Table-2 attribute subset; the feature dimension
        # is whatever the prepared task exposes (the target is not a feature).
        assert plan.dim == us.regression_task("linear", dims=5).dim
        assert plan.folds[0].X.shape[1] == plan.dim
        assert plan.epsilons == (0.8, 3.2)

    def test_cell_order_is_fold_major(self, us):
        plan = plan_cells(
            "FM", us, "linear", dims=5, epsilons=[0.8, 3.2], preset=SMOKE, seed=0
        )
        cells = list(plan.iter_cells())
        assert [e for _, e in cells[:2]] == [0.8, 3.2]
        assert cells[0][0] is cells[1][0]

    def test_folds_partition_each_repetition(self, us):
        plan = plan_cells(
            "NoPrivacy", us, "linear", dims=5, epsilons=[0.8], preset=SMOKE, seed=1
        )
        for fold in plan.folds:
            joined = np.sort(np.concatenate([fold.train_idx, fold.test_idx]))
            np.testing.assert_array_equal(joined, np.arange(fold.X.shape[0]))

    def test_substream_fresh_per_call(self, us):
        plan = plan_cells(
            "FM", us, "linear", dims=5, epsilons=[0.8], preset=SMOKE, seed=0
        )
        fold = plan.folds[0]
        a = plan.substream(fold).laplace(0.0, 1.0, size=4)
        b = plan.substream(fold).laplace(0.0, 1.0, size=4)
        np.testing.assert_array_equal(a, b)

    def test_plan_is_deterministic(self, us):
        a = plan_cells("FM", us, "linear", dims=5, epsilons=[0.8], preset=SMOKE, seed=5)
        b = plan_cells("FM", us, "linear", dims=5, epsilons=[0.8], preset=SMOKE, seed=5)
        for fa, fb in zip(a.folds, b.folds):
            np.testing.assert_array_equal(fa.train_idx, fb.train_idx)
            np.testing.assert_array_equal(fa.test_idx, fb.test_idx)
            assert fa.stream_tag == fb.stream_tag

    def test_algorithms_get_distinct_folds(self, us):
        """Subsampling is keyed per algorithm, exactly like the loop path."""
        fm = plan_cells("FM", us, "linear", dims=5, epsilons=[0.8], preset=SMOKE, seed=0)
        np_plan = plan_cells(
            "NoPrivacy", us, "linear", dims=5, epsilons=[0.8], preset=SMOKE, seed=0
        )
        assert not np.array_equal(fm.folds[0].train_idx, np_plan.folds[0].train_idx)

    def test_sampling_rate_validation(self, us):
        with pytest.raises(ExperimentError):
            plan_cells(
                "FM", us, "linear", dims=5, epsilons=[0.8], preset=SMOKE,
                sampling_rate=0.0,
            )

    def test_empty_epsilons_rejected(self, us):
        with pytest.raises(ExperimentError):
            plan_cells("FM", us, "linear", dims=5, epsilons=[], preset=SMOKE)

    def test_n_train(self, us):
        plan = plan_cells(
            "FM", us, "linear", dims=5, epsilons=[0.8], preset=SMOKE, seed=0
        )
        expected = SMOKE.cardinality(us.n)
        assert plan.n_train == pytest.approx(expected * 2 / 3, abs=2)


class TestFoldGathers:
    """``train_arrays``/``test_arrays`` are ``X[idx]``/``y[idx]``, byte for byte."""

    @staticmethod
    def _fold(read_only: bool) -> PlannedFold:
        gen = np.random.default_rng(4)
        X = gen.uniform(-0.5, 0.5, size=(97, 6))
        y = gen.uniform(-1.0, 1.0, size=97)
        if read_only:
            X.setflags(write=False)
            y.setflags(write=False)
        order = gen.permutation(97)
        return PlannedFold(
            rep=0, fold=0, X=X, y=y, train_idx=np.sort(order[:70]),
            test_idx=order[70:], stream_tag=(1, 0, 0),
        )

    @pytest.mark.parametrize("read_only", [True, False], ids=["read-only", "writable"])
    @pytest.mark.parametrize("split", ["train", "test"])
    def test_gather_equals_fancy_index(self, read_only, split):
        fold = self._fold(read_only)
        idx = fold.train_idx if split == "train" else fold.test_idx
        X_part, y_part = getattr(fold, f"{split}_arrays")()
        for got, want, source in ((X_part, fold.X[idx], fold.X), (y_part, fold.y[idx], fold.y)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            assert got.flags.c_contiguous and got.flags.writeable
            assert not np.shares_memory(got, source)
