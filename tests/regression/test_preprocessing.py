"""Tests for footnote-1 normalization and resampling."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import DataError, DomainError
from repro.regression.preprocessing import (
    FeatureScaler,
    KFold,
    TargetScaler,
    binarize_labels,
    max_feature_norm,
    train_test_split,
)


class TestFeatureScaler:
    def test_norm_bound_at_extremes(self):
        d = 6
        scaler = FeatureScaler(lower=np.zeros(d), upper=np.full(d, 10.0))
        X = np.full((4, d), 10.0)  # every attribute at its maximum
        assert max_feature_norm(scaler.transform(X)) == pytest.approx(1.0)

    def test_footnote1_formula(self):
        scaler = FeatureScaler(lower=np.array([0.0, 10.0]), upper=np.array([4.0, 20.0]))
        X = np.array([[2.0, 15.0]])
        out = scaler.transform(X)
        np.testing.assert_allclose(out, [[0.5 / np.sqrt(2), 0.5 / np.sqrt(2)]])

    def test_degenerate_attribute_maps_to_zero(self):
        scaler = FeatureScaler(lower=np.array([1.0, 0.0]), upper=np.array([1.0, 2.0]))
        out = scaler.transform(np.array([[1.0, 1.0]]))
        assert out[0, 0] == 0.0

    def test_clip_confines_out_of_domain(self):
        scaler = FeatureScaler(lower=np.zeros(2), upper=np.ones(2))
        out = scaler.transform(np.array([[5.0, -3.0]]))
        assert out[0, 0] == pytest.approx(1.0 / np.sqrt(2))
        assert out[0, 1] == 0.0

    def test_no_clip_raises_out_of_domain(self):
        scaler = FeatureScaler(lower=np.zeros(2), upper=np.ones(2), clip=False)
        with pytest.raises(DomainError):
            scaler.transform(np.array([[2.0, 0.5]]))

    def test_invalid_bounds(self):
        with pytest.raises(DomainError):
            FeatureScaler(lower=np.array([1.0]), upper=np.array([0.0]))

    def test_mismatched_bounds(self):
        with pytest.raises(DataError):
            FeatureScaler(lower=np.zeros(2), upper=np.ones(3))

    def test_from_data_non_private(self):
        X = np.array([[0.0, 5.0], [10.0, 15.0]])
        scaler = FeatureScaler.from_data_non_private(X)
        np.testing.assert_allclose(scaler.lower, [0.0, 5.0])
        np.testing.assert_allclose(scaler.upper, [10.0, 15.0])

    def test_wrong_width_rejected(self):
        scaler = FeatureScaler(lower=np.zeros(2), upper=np.ones(2))
        with pytest.raises(DataError):
            scaler.transform(np.zeros((3, 3)))

    @given(st.integers(1, 10), st.integers(0, 2**30))
    @settings(max_examples=40, deadline=None)
    def test_norm_invariant_property(self, d, seed):
        gen = np.random.default_rng(seed)
        lower = gen.uniform(-5, 0, size=d)
        upper = lower + gen.uniform(0.1, 10, size=d)
        scaler = FeatureScaler(lower=lower, upper=upper)
        X = gen.uniform(lower, upper, size=(20, d))
        assert max_feature_norm(scaler.transform(X)) <= 1.0 + 1e-9


class TestTargetScaler:
    def test_endpoints(self):
        scaler = TargetScaler(lower=0.0, upper=100.0)
        np.testing.assert_allclose(scaler.transform([0.0, 50.0, 100.0]), [-1.0, 0.0, 1.0])

    def test_roundtrip(self):
        scaler = TargetScaler(lower=-3.0, upper=7.0)
        y = np.array([-3.0, 0.0, 5.0, 7.0])
        np.testing.assert_allclose(scaler.inverse_transform(scaler.transform(y)), y)

    def test_clip(self):
        scaler = TargetScaler(lower=0.0, upper=1.0)
        assert scaler.transform([2.0])[0] == 1.0

    def test_no_clip_raises(self):
        scaler = TargetScaler(lower=0.0, upper=1.0, clip=False)
        with pytest.raises(DomainError):
            scaler.transform([2.0])

    def test_invalid_domain(self):
        with pytest.raises(DomainError):
            TargetScaler(lower=1.0, upper=1.0)


class TestBinarize:
    def test_threshold_strict(self):
        out = binarize_labels(np.array([1.0, 2.0, 3.0]), threshold=2.0)
        np.testing.assert_array_equal(out, [0.0, 0.0, 1.0])

    def test_output_is_float_boolean(self):
        out = binarize_labels(np.array([5.0]), threshold=0.0)
        assert out.dtype == float and out[0] == 1.0


class TestTrainTestSplit:
    def test_partition(self):
        train, test = train_test_split(100, test_fraction=0.2, rng=0)
        assert len(train) + len(test) == 100
        assert len(np.intersect1d(train, test)) == 0
        assert len(test) == 20

    def test_minimum_sizes(self):
        train, test = train_test_split(2, test_fraction=0.5, rng=0)
        assert len(train) == 1 and len(test) == 1

    def test_rejects_tiny_n(self):
        with pytest.raises(DataError):
            train_test_split(1)

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            train_test_split(10, test_fraction=1.0)


class TestKFold:
    def test_every_index_tested_once(self):
        folds = list(KFold(n_splits=5, rng=0).split(103))
        tested = np.concatenate([test for _, test in folds])
        assert sorted(tested.tolist()) == list(range(103))

    def test_train_test_disjoint(self):
        for train, test in KFold(n_splits=4, rng=1).split(50):
            assert len(np.intersect1d(train, test)) == 0
            assert len(train) + len(test) == 50

    def test_fold_sizes_balanced(self):
        sizes = [len(test) for _, test in KFold(n_splits=5, rng=0).split(102)]
        assert max(sizes) - min(sizes) <= 1

    def test_no_shuffle_is_contiguous(self):
        folds = list(KFold(n_splits=2, shuffle=False).split(10))
        np.testing.assert_array_equal(folds[0][1], np.arange(5))

    def test_rejects_more_folds_than_samples(self):
        with pytest.raises(DataError):
            list(KFold(n_splits=5).split(3))

    def test_rejects_single_fold(self):
        with pytest.raises(ValueError):
            KFold(n_splits=1)

    def test_seeded_reproducibility(self):
        a = list(KFold(n_splits=3, rng=7).split(30))
        b = list(KFold(n_splits=3, rng=7).split(30))
        for (ta, sa), (tb, sb) in zip(a, b):
            np.testing.assert_array_equal(ta, tb)
            np.testing.assert_array_equal(sa, sb)


def _reference_kfold(n, n_splits, shuffle, gen):
    """The concatenate + sort splitter the mask-based one replaced."""
    indices = gen.permutation(n) if shuffle else np.arange(n)
    fold_sizes = np.full(n_splits, n // n_splits, dtype=int)
    fold_sizes[: n % n_splits] += 1
    start = 0
    for size in fold_sizes:
        test = indices[start : start + size]
        train = np.concatenate([indices[:start], indices[start + size :]])
        yield np.sort(train), np.sort(test)
        start += size


def _assert_same_indices(got, want):
    assert got.dtype == want.dtype
    assert got.flags.c_contiguous
    assert np.all(np.diff(got) > 0)
    assert got.tobytes() == want.tobytes()


class TestSplitOracle:
    """Mask-based splits equal the old concatenate + sort splits exactly."""

    @pytest.mark.parametrize("n_splits", range(2, 11))
    @pytest.mark.parametrize("n", [10, 11, 103, 1000, 12_347])
    @pytest.mark.parametrize("shuffle", [True, False])
    def test_kfold_matches_reference(self, n_splits, n, shuffle):
        gen = np.random.default_rng(n * 7 + n_splits)
        ref_gen = np.random.default_rng(n * 7 + n_splits)
        got = list(KFold(n_splits=n_splits, shuffle=shuffle, rng=gen).split(n))
        want = list(_reference_kfold(n, n_splits, shuffle, ref_gen))
        assert len(got) == len(want) == n_splits
        for (train, test), (ref_train, ref_test) in zip(got, want):
            _assert_same_indices(train, ref_train)
            _assert_same_indices(test, ref_test)
        # One permutation draw either way: the generator's next draw agrees.
        assert gen.integers(2**62) == ref_gen.integers(2**62)

    @pytest.mark.parametrize("n", [2, 3, 10, 101, 5000])
    @pytest.mark.parametrize("fraction", [0.01, 0.2, 0.5, 0.9])
    def test_train_test_split_matches_reference(self, n, fraction):
        gen = np.random.default_rng(n)
        ref_gen = np.random.default_rng(n)
        train, test = train_test_split(n, test_fraction=fraction, rng=gen)
        order = ref_gen.permutation(n)
        n_test = min(max(1, int(round(n * fraction))), n - 1)
        _assert_same_indices(train, np.sort(order[n_test:]))
        _assert_same_indices(test, np.sort(order[:n_test]))
        assert gen.integers(2**62) == ref_gen.integers(2**62)
