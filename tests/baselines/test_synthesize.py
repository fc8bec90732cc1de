"""Tests for synthetic-data regeneration from noisy counts."""

import numpy as np
import pytest

from repro.baselines.dpme import build_joint_grid
from repro.baselines.histogram import COUNT_SENSITIVITY, Grid, histogram_counts
from repro.baselines.synthesize import SyntheticData, synthesize_from_counts
from repro.exceptions import DataError
from repro.privacy.laplace import laplace_noise


@pytest.fixture
def joint_grid():
    # 2 feature dims + 1 target dim.
    return Grid(
        lower=np.array([0.0, 0.0, -1.0]),
        upper=np.array([1.0, 1.0, 1.0]),
        bins_per_dim=np.array([2, 2, 2]),
    )


class TestWeightedMode:
    def test_shapes(self, joint_grid):
        counts = np.arange(8, dtype=float)
        synth = synthesize_from_counts(joint_grid, counts, mode="weighted")
        assert synth.X.shape[1] == 2
        assert synth.y.shape[0] == synth.X.shape[0] == synth.weights.shape[0]

    def test_negative_counts_clamped(self, joint_grid):
        counts = np.full(8, -5.0)
        counts[3] = 4.0
        synth = synthesize_from_counts(joint_grid, counts, mode="weighted")
        assert synth.effective_size == 4.0
        assert synth.X.shape[0] == 1

    def test_fractional_counts_rounded(self, joint_grid):
        counts = np.zeros(8)
        counts[0] = 2.6
        synth = synthesize_from_counts(joint_grid, counts, mode="weighted")
        assert synth.weights[0] == 3.0

    def test_all_zero_counts_degenerate(self, joint_grid):
        synth = synthesize_from_counts(joint_grid, np.zeros(8), mode="weighted")
        assert synth.effective_size == 0.0
        assert synth.X.shape[0] == 1  # placeholder row with zero weight

    def test_y_is_last_dimension(self, joint_grid):
        counts = np.zeros(8)
        counts[1] = 1.0  # cell (0, 0, 1): last dim bin 1 -> y center 0.5
        synth = synthesize_from_counts(joint_grid, counts, mode="weighted")
        assert synth.y[0] == pytest.approx(0.5)
        np.testing.assert_allclose(synth.X[0], [0.25, 0.25])


class TestPointsMode:
    def test_row_counts(self, joint_grid):
        counts = np.zeros(8)
        counts[0] = 3.0
        counts[7] = 2.0
        synth = synthesize_from_counts(joint_grid, counts, mode="points")
        assert synth.X.shape[0] == 5
        assert np.all(synth.weights == 1.0)

    def test_center_placement_matches_weighted_moments(self, joint_grid, rng):
        counts = rng.integers(0, 5, size=8).astype(float)
        weighted = synthesize_from_counts(joint_grid, counts, mode="weighted")
        points = synthesize_from_counts(
            joint_grid, counts, mode="points", placement="center"
        )
        # First moments must agree exactly.
        w_mean = (weighted.X * weighted.weights[:, None]).sum(0) / weighted.effective_size
        np.testing.assert_allclose(points.X.mean(axis=0), w_mean, atol=1e-12)

    def test_uniform_placement_within_cells(self, joint_grid):
        counts = np.zeros(8)
        counts[0] = 200.0
        synth = synthesize_from_counts(
            joint_grid, counts, mode="points", placement="uniform", rng=0
        )
        assert np.all(synth.X >= 0.0) and np.all(synth.X <= 0.5)
        assert np.all(synth.y >= -1.0) and np.all(synth.y <= 0.0)
        # Spread within the cell, not collapsed to the center.
        assert synth.X[:, 0].std() > 0.05

    def test_row_cap_enforced(self, joint_grid):
        counts = np.zeros(8)
        counts[0] = 6_000_000.0
        with pytest.raises(DataError):
            synthesize_from_counts(joint_grid, counts, mode="points")

    def test_invalid_mode(self, joint_grid):
        with pytest.raises(ValueError):
            synthesize_from_counts(joint_grid, np.zeros(8), mode="bootstrap")

    def test_invalid_placement(self, joint_grid):
        counts = np.zeros(8)
        counts[0] = 1.0
        with pytest.raises(ValueError):
            synthesize_from_counts(joint_grid, counts, mode="points", placement="corner")

    def test_wrong_count_length(self, joint_grid):
        with pytest.raises(DataError):
            synthesize_from_counts(joint_grid, np.zeros(7))


def _noisy_counts(grid, epsilon, seed):
    """Laplace-noised counts of points spread over the grid, as DPME draws them."""
    gen = np.random.default_rng(seed)
    points = gen.uniform(grid.lower, grid.upper, size=(2000, grid.dims))
    counts = histogram_counts(grid, points)
    return counts + laplace_noise(COUNT_SENSITIVITY, epsilon, size=counts.shape, rng=gen)


def _reference_rows(grid, noisy, placement, seed):
    """The per-row path: unravel every synthetic row's repeated cell index."""
    counts = np.round(np.maximum(noisy, 0.0)).astype(np.int64)
    occupied = np.nonzero(counts)[0]
    flat = np.repeat(occupied, counts[occupied])
    if placement == "center":
        return grid.cell_center(flat)
    return grid.sample_in_cells(flat, rng=np.random.default_rng(seed))


class TestPointsOracle:
    """Points synthesis is the per-row reference path bit for bit, and
    returns C-contiguous ``X``/``y`` for the fits' BLAS calls."""

    GRIDS = {
        "linear": build_joint_grid(4000, 4, "linear"),
        "logistic": build_joint_grid(4000, 4, "logistic"),
        "non-uniform-bins": Grid(
            lower=np.array([0.0, -0.5, 0.25, -1.0]),
            upper=np.array([0.5, 0.5, 1.0, 1.0]),
            bins_per_dim=np.array([3, 7, 1, 4]),
        ),
    }

    @pytest.mark.parametrize("name", sorted(GRIDS))
    @pytest.mark.parametrize("placement", ["uniform", "center"])
    @pytest.mark.parametrize("epsilon", [0.1, 3.2])
    def test_matches_per_row_reference(self, name, placement, epsilon):
        grid = self.GRIDS[name]
        noisy = _noisy_counts(grid, epsilon, seed=11)
        synth = synthesize_from_counts(
            grid, noisy, mode="points", placement=placement,
            rng=np.random.default_rng(5),
        )
        rows = _reference_rows(grid, noisy, placement, seed=5)
        assert synth.X.tobytes() == np.ascontiguousarray(rows[:, :-1]).tobytes()
        assert synth.y.tobytes() == np.ascontiguousarray(rows[:, -1]).tobytes()
        assert synth.X.flags.c_contiguous and synth.y.flags.c_contiguous
        assert synth.weights.tobytes() == np.ones(rows.shape[0]).tobytes()

    def test_all_clamped_counts(self):
        grid = self.GRIDS["non-uniform-bins"]
        gen = np.random.default_rng(9)
        before = gen.bit_generator.state
        synth = synthesize_from_counts(
            grid, np.full(grid.total_cells, -0.7), mode="points",
            placement="uniform", rng=gen,
        )
        center = grid.cell_center(grid.total_cells // 2)
        assert synth.X.tobytes() == center[:-1].tobytes()
        assert synth.y.tobytes() == center[-1:].tobytes()
        assert synth.X.flags.c_contiguous and synth.y.flags.c_contiguous
        assert synth.effective_size == 0.0
        assert gen.bit_generator.state == before  # no draw for an empty release


@pytest.fixture
def rng():
    return np.random.default_rng(13)
