"""Block-aligned row partitioning for federation parties.

A party ingests the rows of one :func:`shard_slices` slice; the
coordinator merges the parties' accumulators with :func:`tree_merge`.
Block-aligned slices keep the merged moments bit-identical to one
accumulator over every row, so the released model does not depend on
the party count.
"""

import numpy as np
import pytest

from repro.core.objectives import LinearRegressionObjective
from repro.engine.accumulator import MomentAccumulator
from repro.engine.sweep import EpsilonSweepEngine
from repro.exceptions import DataError, DomainError, FederatedError
from repro.federated import tree_merge
from repro.federated.party import shard_slices


@pytest.fixture
def stream_data():
    """(X, y): 5000 normalized rows with targets in [-1, 1]."""
    rng = np.random.default_rng(2024)
    d = 6
    X = rng.uniform(-1.0 / np.sqrt(d), 1.0 / np.sqrt(d), size=(5000, d))
    y = np.clip(X @ rng.uniform(-1, 1, d) + rng.normal(0, 0.1, 5000), -1.0, 1.0)
    return X, y


def _bit_identical(a, b) -> bool:
    return (
        a.dim == b.dim
        and a.n == b.n
        and np.array_equal(a.S2, b.S2)
        and np.array_equal(a.S1, b.S1)
        and np.array_equal(a.Sxy, b.Sxy)
        and a.Sy == b.Sy
        and a.Syy == b.Syy
    )


def _sharded(X, y, shards, block_size=256):
    """One accumulator per block-aligned slice, merged by the coordinator."""
    parts = [
        MomentAccumulator(X.shape[1], block_size=block_size).update(X[sl], y[sl])
        for sl in shard_slices(X.shape[0], shards, block_size=block_size)
    ]
    return tree_merge(parts)


class TestShardSlices:
    def test_covers_all_rows_without_overlap(self):
        for n in (0, 1, 5, 16, 17, 100):
            for shards in (1, 2, 3, 4, 7):
                slices = shard_slices(n, shards, block_size=4)
                assert len(slices) == shards
                covered = []
                for sl in slices:
                    covered.extend(range(sl.start, sl.stop))
                assert covered == list(range(n)), (n, shards)

    def test_boundaries_are_block_aligned(self):
        for n in (5, 16, 17, 100, 1001):
            for shards in (2, 3, 4):
                for sl in shard_slices(n, shards, block_size=8)[:-1]:
                    assert sl.start % 8 == 0
                    assert sl.stop % 8 == 0 or sl.stop == n

    def test_more_shards_than_blocks_gives_empty_tail_slices(self):
        slices = shard_slices(4, 8, block_size=4)  # one block, eight shards
        assert sum(sl.stop - sl.start for sl in slices) == 4
        assert any(sl.start == sl.stop for sl in slices)

    def test_invalid_args(self):
        with pytest.raises(DataError):
            shard_slices(-1, 2)
        with pytest.raises(DataError):
            shard_slices(10, 0)


class TestShardInvariance:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_bit_identical_to_monolithic(self, shards, stream_data):
        X, y = stream_data
        monolithic = MomentAccumulator(X.shape[1], block_size=256).update(X, y)
        assert _bit_identical(_sharded(X, y, shards).snapshot(), monolithic.snapshot())

    def test_fitted_coefficients_shard_invariant(self, stream_data):
        """Same seed + any shard count => bit-identical released model."""
        X, y = stream_data
        objective = LinearRegressionObjective(X.shape[1])
        omegas = []
        for shards in (1, 2, 4):
            engine = EpsilonSweepEngine(objective, _sharded(X, y, shards))
            sweep = engine.sweep([0.5, 2.0], rng=np.random.default_rng(99))
            omegas.append(sweep.coefficients)
        np.testing.assert_array_equal(omegas[0], omegas[1])
        np.testing.assert_array_equal(omegas[0], omegas[2])

    def test_row_count_preserved(self, stream_data):
        X, y = stream_data
        assert _sharded(X, y, 3, block_size=128).n_rows == X.shape[0]

    def test_validation_still_applies_per_shard(self):
        X = np.full((40, 2), 0.9)  # ||x|| > 1
        with pytest.raises(DomainError):
            _sharded(X, np.zeros(40), 2, block_size=8)


class TestTreeMerge:
    def test_empty_rejected(self):
        with pytest.raises(FederatedError):
            tree_merge([])

    def test_single_passthrough(self, stream_data):
        X, y = stream_data
        acc = MomentAccumulator(X.shape[1]).update(X, y)
        merged = tree_merge([acc])
        # Non-mutating: a copy with the same moments, never the input itself.
        assert merged is not acc
        assert _bit_identical(merged.snapshot(), acc.snapshot())

    def test_odd_count(self, stream_data):
        X, y = stream_data
        parts = [
            MomentAccumulator(X.shape[1], block_size=64).update(X[s::3], y[s::3])
            for s in range(3)
        ]
        merged = tree_merge(parts)
        assert merged.n_rows == X.shape[0]
        # Strided partitions reorder rows across blocks, so compare against
        # an accumulator built from the same strided pieces linearly.
        linear = MomentAccumulator(X.shape[1], block_size=64)
        for s in range(3):
            linear.merge(MomentAccumulator(X.shape[1], block_size=64).update(X[s::3], y[s::3]))
        assert _bit_identical(merged.snapshot(), linear.snapshot())
