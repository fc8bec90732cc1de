"""Tests for the streaming moment accumulator."""

import numpy as np
import pytest

from repro.core.mechanism import FunctionalMechanism
from repro.core.objectives import (
    LinearRegressionObjective,
    LogisticRegressionObjective,
)
from repro.engine.accumulator import MomentAccumulator
from repro.exceptions import (
    DataError,
    DegreeError,
    DimensionMismatchError,
    DomainError,
)


class TestUpdateValidation:
    def test_rejects_wrong_width(self):
        with pytest.raises(DataError):
            MomentAccumulator(3).update(np.zeros((4, 2)), np.zeros(4))

    def test_rejects_length_mismatch(self):
        with pytest.raises(DataError):
            MomentAccumulator(2).update(np.zeros((4, 2)), np.zeros(3))

    def test_rejects_non_finite(self):
        X = np.array([[0.1, np.inf]])
        with pytest.raises(DataError):
            MomentAccumulator(2).update(X, np.zeros(1))

    def test_rejects_unnormalized_features(self):
        X = np.array([[2.0, 0.0]])
        with pytest.raises(DomainError):
            MomentAccumulator(2).update(X, np.zeros(1))

    def test_rejects_out_of_range_target(self):
        with pytest.raises(DomainError):
            MomentAccumulator(2).update(np.zeros((1, 2)), np.array([1.5]))

    def test_validate_false_skips_domain_checks(self):
        acc = MomentAccumulator(2, validate=False)
        acc.update(np.array([[2.0, 0.0]]), np.array([5.0]))
        assert acc.n_rows == 1

    def test_empty_chunk_is_noop(self):
        acc = MomentAccumulator(2)
        acc.update(np.zeros((0, 2)), np.zeros(0))
        assert acc.n_rows == 0
        snap = acc.snapshot()
        assert snap.n == 0
        assert np.array_equal(snap.S2, np.zeros((2, 2)))

    def test_invalid_constructor_args(self):
        with pytest.raises(DataError):
            MomentAccumulator(0)
        with pytest.raises(DataError):
            MomentAccumulator(2, block_size=0)


class TestAgainstDirectAggregation:
    def test_linear_coefficients_match(self, stream_data):
        X, y = stream_data
        objective = LinearRegressionObjective(X.shape[1])
        acc = MomentAccumulator(X.shape[1], block_size=512)
        for start in range(0, X.shape[0], 333):
            acc.update(X[start : start + 333], y[start : start + 333])
        form = acc.quadratic_form(objective)
        direct = objective.aggregate_quadratic(X, y)
        np.testing.assert_allclose(form.M, direct.M, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(form.alpha, direct.alpha, rtol=1e-12, atol=1e-14)
        assert form.beta == pytest.approx(direct.beta, rel=1e-12)

    def test_logistic_coefficients_match(self, stream_data, labels):
        X, _ = stream_data
        objective = LogisticRegressionObjective(X.shape[1])
        acc = MomentAccumulator(X.shape[1], block_size=512).update(X, labels)
        form = acc.quadratic_form(objective)
        direct = objective.aggregate_quadratic(X, labels)
        np.testing.assert_allclose(form.M, direct.M, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(form.alpha, direct.alpha, rtol=1e-12, atol=1e-14)
        assert form.beta == pytest.approx(direct.beta, rel=1e-12)

    def test_chebyshev_logistic_supported(self, stream_data, labels):
        X, _ = stream_data
        objective = LogisticRegressionObjective(X.shape[1], approximation="chebyshev")
        acc = MomentAccumulator(X.shape[1]).update(X, labels)
        form = acc.quadratic_form(objective)
        direct = objective.aggregate_quadratic(X, labels)
        np.testing.assert_allclose(form.M, direct.M, rtol=1e-12, atol=1e-14)

    def test_higher_order_logistic_rejected(self, stream_data, labels):
        X, _ = stream_data
        acc = MomentAccumulator(X.shape[1]).update(X, labels)
        with pytest.raises(DegreeError):
            acc.quadratic_form(LogisticRegressionObjective(X.shape[1], order=4))

    def test_dim_mismatch_rejected(self, stream_data):
        X, y = stream_data
        acc = MomentAccumulator(X.shape[1]).update(X, y)
        with pytest.raises(DimensionMismatchError):
            acc.quadratic_form(LinearRegressionObjective(X.shape[1] + 1))


class TestChunkInvariance:
    def test_chunking_never_changes_bits(self, stream_data, bit_identical):
        X, y = stream_data
        reference = MomentAccumulator(X.shape[1], block_size=256).update(X, y)
        for chunk in (1, 7, 100, 256, 999, 5000):
            acc = MomentAccumulator(X.shape[1], block_size=256)
            for start in range(0, X.shape[0], chunk):
                acc.update(X[start : start + chunk], y[start : start + chunk])
            assert bit_identical(acc.snapshot(), reference.snapshot()), chunk

    def test_snapshot_does_not_mutate(self, stream_data, bit_identical):
        X, y = stream_data
        acc = MomentAccumulator(X.shape[1], block_size=4096)
        acc.update(X[:100], y[:100])  # pending tail only
        first = acc.snapshot()
        acc.update(X[100:200], y[100:200])
        reference = MomentAccumulator(X.shape[1], block_size=4096).update(X[:200], y[:200])
        assert bit_identical(acc.snapshot(), reference.snapshot())
        assert first.n == 100

    def test_caller_mutation_after_update_is_harmless(self):
        X = np.full((3, 2), 0.1)
        y = np.full(3, 0.5)
        acc = MomentAccumulator(2).update(X, y)
        X[:] = 0.7  # tail rows must have been copied
        snap = acc.snapshot()
        assert snap.S1[0] == pytest.approx(0.3)


class TestSerialization:
    def test_npz_round_trip_bit_identical(self, tmp_path, stream_data, bit_identical):
        X, y = stream_data
        acc = MomentAccumulator(X.shape[1], block_size=512).update(X, y)
        path = tmp_path / "acc.npz"
        acc.save(path)
        loaded = MomentAccumulator.load(path)
        assert loaded.dim == acc.dim
        assert loaded.block_size == acc.block_size
        assert bit_identical(loaded.snapshot(), acc.snapshot())

    def test_round_trip_of_empty_accumulator(self, tmp_path, bit_identical):
        acc = MomentAccumulator(4)
        path = tmp_path / "empty.npz"
        acc.save(path)
        loaded = MomentAccumulator.load(path)
        assert loaded.n_rows == 0
        assert bit_identical(loaded.snapshot(), acc.snapshot())

    def test_save_is_non_mutating(self, tmp_path, stream_data, bit_identical):
        X, y = stream_data
        acc = MomentAccumulator(X.shape[1], block_size=4096).update(X[:10], y[:10])
        acc.save(tmp_path / "a.npz")
        acc.update(X[10:20], y[10:20])
        reference = MomentAccumulator(X.shape[1], block_size=4096).update(X[:20], y[:20])
        assert bit_identical(acc.snapshot(), reference.snapshot())

    def test_mid_stream_round_trip_resumes_exact_block_boundaries(
        self, tmp_path, stream_data, bit_identical
    ):
        """A save/load cycle between two updates must be invisible: the
        pending partial tail round-trips as raw rows, so later blocks
        form at the same canonical boundaries (serve's evict-and-reload
        path relies on this for fit-digest identity)."""
        X, y = stream_data
        acc = MomentAccumulator(X.shape[1], block_size=256).update(X[:100], y[:100])
        path = tmp_path / "mid.npz"
        acc.save(path)
        resumed = MomentAccumulator.load(path).update(X[100:500], y[100:500])
        reference = MomentAccumulator(X.shape[1], block_size=256).update(
            X[:500], y[:500]
        )
        assert resumed.n_rows == 500
        assert bit_identical(resumed.snapshot(), reference.snapshot())


class TestMechanismEntryPoint:
    def test_perturb_from_accumulator_matches_quadratic_path(self, stream_data):
        X, y = stream_data
        objective = LinearRegressionObjective(X.shape[1])
        acc = MomentAccumulator(X.shape[1]).update(X, y)
        noisy_a, record_a = FunctionalMechanism(1.0, rng=5).perturb_from_accumulator(
            acc, objective
        )
        noisy_b, record_b = FunctionalMechanism(1.0, rng=5).perturb_quadratic(
            acc.quadratic_form(objective), objective.sensitivity()
        )
        np.testing.assert_array_equal(noisy_a.M, noisy_b.M)
        np.testing.assert_array_equal(noisy_a.alpha, noisy_b.alpha)
        assert noisy_a.beta == noisy_b.beta
        assert record_a == record_b


class TestSnapshotMemo:
    def test_repeat_snapshot_is_memoized_and_read_only(self, stream_data):
        X, y = stream_data
        acc = MomentAccumulator(X.shape[1], block_size=256).update(X[:1000], y[:1000])
        snap = acc.snapshot()
        assert acc.snapshot() is snap
        for array in (snap.S2, snap.S1, snap.Sxy):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_memo_equals_fresh_recompute(self, stream_data, bit_identical):
        X, y = stream_data
        acc = MomentAccumulator(X.shape[1], block_size=256).update(X[:1000], y[:1000])
        memo = acc.snapshot()
        fresh = acc.copy().snapshot()  # a copy starts without the memo
        assert fresh is not memo
        assert bit_identical(memo, fresh)

    def test_non_empty_update_invalidates(self, stream_data, bit_identical):
        X, y = stream_data
        acc = MomentAccumulator(X.shape[1], block_size=256).update(X[:100], y[:100])
        stale = acc.snapshot()
        acc.update(X[100:300], y[100:300])
        reference = MomentAccumulator(X.shape[1], block_size=256).update(X[:300], y[:300])
        assert acc.snapshot() is not stale
        assert bit_identical(acc.snapshot(), reference.snapshot())

    def test_empty_update_keeps_memo(self, stream_data):
        X, y = stream_data
        acc = MomentAccumulator(X.shape[1]).update(X[:100], y[:100])
        snap = acc.snapshot()
        acc.update(X[:0], y[:0])
        assert acc.snapshot() is snap

    def test_merge_invalidates(self, stream_data, bit_identical):
        X, y = stream_data
        acc = MomentAccumulator(X.shape[1], block_size=256).update(X[:512], y[:512])
        other = MomentAccumulator(X.shape[1], block_size=256).update(X[512:1024], y[512:1024])
        stale = acc.snapshot()
        acc.merge(other)
        reference = MomentAccumulator(X.shape[1], block_size=256).update(X[:1024], y[:1024])
        assert acc.snapshot() is not stale
        assert acc.snapshot().n == 1024
        assert bit_identical(acc.snapshot(), reference.snapshot())

    def test_seal_invalidates(self, stream_data, bit_identical):
        X, y = stream_data
        acc = MomentAccumulator(X.shape[1], block_size=256).update(X[:300], y[:300])
        stale = acc.snapshot()
        acc.seal()
        assert acc.snapshot() is not stale
        assert bit_identical(acc.snapshot(), stale)

    def test_load_starts_without_memo(self, tmp_path, stream_data, bit_identical):
        X, y = stream_data
        acc = MomentAccumulator(X.shape[1], block_size=256).update(X[:700], y[:700])
        snap = acc.snapshot()
        acc.save(tmp_path / "memo.npz")
        loaded = MomentAccumulator.load(tmp_path / "memo.npz")
        assert bit_identical(loaded.snapshot(), snap)
        assert acc.snapshot() is snap  # save leaves the memo in place
