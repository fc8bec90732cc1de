"""Tiling, executor and grouping invariance: every schedule, same bits.

The tiled runtime's contract extends PR 2's batched == percell guarantee to
three new axes: the tile size (any tiling == untiled == the per-cell
oracle), the executor (serial == thread == forked-process, at tile or cell
granularity), and grouping (a multi-algorithm merged-solve group == each
algorithm run alone).  All comparisons are ``==`` on full score vectors —
no tolerances.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import ExperimentError
from repro.experiments.config import SMOKE, ScalePreset
from repro.privacy.rng import derive_substream
from repro.runtime import (
    PreparedDataCache,
    plan_cells,
    plan_cells_tiled,
    run_plan,
    run_plan_group,
)
from repro.session import ExecutionPolicy, Session

EPSILONS = (0.1, 0.8, 3.2)


def tiny_preset(reps: int, folds: int = 3) -> ScalePreset:
    return ScalePreset(
        name=f"tiny-{reps}x{folds}", max_records=600, folds=folds, repetitions=reps
    )


def percell_reference(us, algorithm, task, epsilons, preset, seed=0, **plan_kwargs):
    plan = plan_cells(
        algorithm, us, task, dims=5, epsilons=epsilons, preset=preset, seed=seed,
        **plan_kwargs,
    )
    return run_plan(plan, mode="percell")


class TestTileInvariance:
    @pytest.mark.parametrize(
        "algorithm,task",
        [
            ("FM", "linear"),
            ("FM", "logistic"),
            ("NoPrivacy", "linear"),
            ("NoPrivacy", "logistic"),
            ("Truncated", "logistic"),
        ],
    )
    def test_every_tile_size_matches_the_oracle(self, us, algorithm, task):
        """tile_size in {1, 2, 3, all, oversized} == untiled == percell."""
        preset = tiny_preset(reps=3)
        oracle = percell_reference(us, algorithm, task, EPSILONS, preset, seed=11)
        untiled = run_plan(
            plan_cells(
                algorithm, us, task, dims=5, epsilons=EPSILONS, preset=preset, seed=11
            ),
            mode="batched",
        )
        assert untiled.scores == oracle.scores
        for tile_size in (1, 2, 3, None, 7):
            tiled = plan_cells_tiled(
                algorithm, us, task, dims=5, epsilons=EPSILONS, preset=preset,
                seed=11, tile_size=tile_size,
            )
            outcome = run_plan(tiled, mode="batched")
            assert outcome.scores == oracle.scores, tile_size
            assert outcome.n_train == oracle.n_train

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        reps=st.integers(min_value=1, max_value=4),
        folds=st.integers(min_value=2, max_value=4),
        n_eps=st.integers(min_value=1, max_value=3),
        tile_size=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_property_tiling_is_invisible(self, us, reps, folds, n_eps, tile_size, seed):
        """Hypothesis sweep over (reps, folds, epsilon-grid, tiling, seed)."""
        preset = tiny_preset(reps=reps, folds=folds)
        epsilons = EPSILONS[:n_eps]
        oracle = percell_reference(us, "FM", "linear", epsilons, preset, seed=seed)
        tiled = plan_cells_tiled(
            "FM", us, "linear", dims=5, epsilons=epsilons, preset=preset,
            seed=seed, tile_size=tile_size,
        )
        assert run_plan(tiled, mode="batched").scores == oracle.scores

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    @pytest.mark.parametrize("mode", ["batched", "percell"])
    def test_executor_choice_is_invisible(self, us, executor, mode):
        preset = tiny_preset(reps=4)
        oracle = percell_reference(us, "FM", "linear", EPSILONS, preset, seed=5)
        tiled = plan_cells_tiled(
            "FM", us, "linear", dims=5, epsilons=EPSILONS, preset=preset,
            seed=5, tile_size=2,
        )
        outcome = run_plan(tiled, mode=mode, executor=executor)
        assert outcome.scores == oracle.scores

    def test_percell_mode_over_tiles(self, us):
        """The oracle itself survives tiling (tiles reduce in order)."""
        preset = tiny_preset(reps=3)
        oracle = percell_reference(us, "NoPrivacy", "linear", (0.8,), preset, seed=2)
        tiled = plan_cells_tiled(
            "NoPrivacy", us, "linear", dims=5, epsilons=(0.8,), preset=preset,
            seed=2, tile_size=1,
        )
        assert run_plan(tiled, mode="percell").scores == oracle.scores

    def test_tile_materialization_is_bounded_and_ordered(self, us):
        preset = tiny_preset(reps=5)
        tiled = plan_cells_tiled(
            "FM", us, "linear", dims=5, epsilons=(0.8,), preset=preset,
            seed=0, tile_size=2,
        )
        assert tiled.n_tiles == 3
        assert tiled.n_cells == 5 * preset.folds
        seen_reps = []
        for tile in tiled.tiles():
            reps = sorted({fold.rep for fold in tile.folds})
            assert len(reps) <= 2
            seen_reps.extend(reps)
        assert seen_reps == [0, 1, 2, 3, 4]

    def test_bad_tile_size_rejected(self, us):
        with pytest.raises(ExperimentError):
            plan_cells_tiled(
                "FM", us, "linear", dims=5, epsilons=(0.8,), preset=SMOKE,
                tile_size=0,
            )

    def test_harness_tile_size_plumbing(self, us):
        eager, tiled = (
            Session(ExecutionPolicy(tile_size=tile_size)).evaluate(
                "FM", us, "linear", dims=5, epsilon=0.8, preset=SMOKE, seed=9
            )
            for tile_size in (None, 1)
        )
        assert tiled.mean_score == eager.mean_score
        assert tiled.std_score == eager.std_score
        assert tiled.n_train == eager.n_train


class TestGroupedExecution:
    def test_group_matches_solo_runs_bitwise(self, us):
        """Merged cross-algorithm solves == each algorithm solved alone."""
        preset = tiny_preset(reps=2)
        names = ["FM", "NoPrivacy", "Truncated"]
        cache = PreparedDataCache()
        plans = [
            plan_cells(
                name, us, "linear", dims=5, epsilons=EPSILONS, preset=preset,
                seed=4, prepared_cache=cache,
            )
            for name in names
        ]
        grouped = run_plan_group(plans, mode="batched")
        for name, outcome in zip(names, grouped):
            solo = percell_reference(us, name, "linear", EPSILONS, preset, seed=4)
            assert outcome.scores == solo.scores, name

    def test_group_preserves_input_order_with_mixed_kernels(self, us):
        preset = tiny_preset(reps=1)
        names = ["NoPrivacy", "FM", "Truncated"]  # newton between quadratics
        plans = [
            plan_cells(
                name, us, "logistic", dims=5, epsilons=(0.8,), preset=preset, seed=1
            )
            for name in names
        ]
        grouped = run_plan_group(plans, mode="batched")
        for name, outcome in zip(names, grouped):
            assert outcome.plan.algorithm == name
            solo = percell_reference(us, name, "logistic", (0.8,), preset, seed=1)
            assert outcome.scores == solo.scores, name

    def test_evaluate_algorithms_equals_per_name_calls(self, us):
        panel = Session(ExecutionPolicy()).evaluate_panel(
            ["FM", "NoPrivacy", "Truncated"], us, "linear", dims=5, epsilon=0.8,
            preset=SMOKE, seed=3,
        )
        for name, result in panel.items():
            solo = Session(ExecutionPolicy()).evaluate(
                name, us, "linear", dims=5, epsilon=0.8, preset=SMOKE, seed=3
            )
            assert result.mean_score == solo.mean_score, name
            assert result.std_score == solo.std_score, name
            assert result.cells == solo.cells, name

    def test_evaluate_algorithms_tiled_equals_eager(self, us):
        eager, tiled = (
            Session(ExecutionPolicy(tile_size=tile_size)).evaluate_panel(
                ["FM", "NoPrivacy"], us, "linear", dims=5, epsilon=0.8,
                preset=SMOKE, seed=7,
            )
            for tile_size in (None, 1)
        )
        for name in eager:
            assert tiled[name].mean_score == eager[name].mean_score, name

    def test_grouped_tiled_plans_must_share_tiling(self, us):
        a = plan_cells_tiled(
            "FM", us, "linear", dims=5, epsilons=(0.8,),
            preset=tiny_preset(reps=4), tile_size=1,
        )
        b = plan_cells_tiled(
            "NoPrivacy", us, "linear", dims=5, epsilons=(0.8,),
            preset=tiny_preset(reps=4), tile_size=2,
        )
        with pytest.raises(ExperimentError):
            run_plan_group([a, b], mode="batched")

    def test_mixed_plan_shapes_rejected(self, us):
        eager = plan_cells(
            "FM", us, "linear", dims=5, epsilons=(0.8,), preset=SMOKE
        )
        tiled = plan_cells_tiled(
            "NoPrivacy", us, "linear", dims=5, epsilons=(0.8,), preset=SMOKE
        )
        with pytest.raises(ExperimentError):
            run_plan_group([eager, tiled])


class TestPreparedDataCache:
    def test_identity_case_shares_one_array_pair(self, us):
        """FULL-protocol shape: no subsample, rate 1.0 -> one prepared copy."""
        preset = ScalePreset(name="identity", max_records=None, folds=3, repetitions=3)
        cache = PreparedDataCache()
        fm = plan_cells(
            "FM", us, "linear", dims=5, epsilons=(0.8,), preset=preset,
            seed=0, prepared_cache=cache,
        )
        ols = plan_cells(
            "NoPrivacy", us, "linear", dims=5, epsilons=(0.8,), preset=preset,
            seed=0, prepared_cache=cache,
        )
        arrays = {id(fold.X) for fold in fm.folds} | {id(fold.X) for fold in ols.folds}
        assert len(arrays) == 1
        # Folds still differ per algorithm (the KFold stream is keyed).
        assert not np.array_equal(fm.folds[0].train_idx, ols.folds[0].train_idx)
        # And the shared arrays change no bits.
        oracle = percell_reference(us, "FM", "linear", (0.8,), preset, seed=0)
        assert run_plan(fm, mode="batched").scores == oracle.scores

    def test_subsampled_reps_do_not_share(self, us):
        cache = PreparedDataCache()
        plan = plan_cells(
            "FM", us, "linear", dims=5, epsilons=(0.8,),
            preset=tiny_preset(reps=2), seed=0, prepared_cache=cache,
        )
        rep_arrays = {fold.rep: id(fold.X) for fold in plan.folds}
        assert rep_arrays[0] != rep_arrays[1]

    def test_moment_blocks_identity_and_weakness(self):
        cache = PreparedDataCache()
        X = np.eye(4)
        y = np.ones(4)
        idx = np.arange(3)
        built = []

        def build():
            built.append(1)
            return ("blocks", len(built))

        first = cache.moment_blocks(X, y, idx, "sig", build)
        second = cache.moment_blocks(X, y, idx, "sig", build)
        assert first is second and built == [1]
        # Different signature or index vector -> rebuild.
        cache.moment_blocks(X, y, idx, "other-sig", build)
        cache.moment_blocks(X, y, np.arange(2), "sig", build)
        assert built == [1, 1, 1]
        # The cache must not keep the arrays alive.
        ref_count_key = (id(X), id(y), cache.split_digest(idx), "sig")
        assert ref_count_key in cache._moments
        del X, y
        cache._prune()
        assert ref_count_key not in cache._moments


class TestPlanStreams:
    @pytest.mark.parametrize("shape", ["eager", "tiled"])
    def test_default_plans_draw_the_session_streams(self, us, shape):
        """A plan built without any stream argument == a default Session."""
        preset = tiny_preset(reps=2)
        plan = (plan_cells if shape == "eager" else plan_cells_tiled)(
            "FM", us, "linear", dims=5, epsilons=(0.8,), preset=preset, seed=3
        )
        scores = run_plan(plan, mode="percell").scores[0.8]
        session = Session(ExecutionPolicy()).evaluate(
            "FM", us, "linear", dims=5, epsilon=0.8, preset=preset, seed=3
        )
        assert session.mean_score == float(np.mean(scores))
        assert session.std_score == float(np.std(scores))

    def test_plan_substream_is_the_fold_tag_stream(self, us):
        plan = plan_cells(
            "FM", us, "linear", dims=5, epsilons=(0.8,), preset=SMOKE, seed=7
        )
        fold = plan.folds[0]
        expected = derive_substream(7, list(fold.stream_tag))
        assert plan.substream(fold).integers(0, 2**63) == expected.integers(0, 2**63)
