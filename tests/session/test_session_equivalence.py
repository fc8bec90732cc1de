"""Session state and dispatch never change a score, bitwise.

A Session holds a persistent prepared-data cache and executor pool across
calls; neither may move a result.  Every entry point run in a *warm*
session (cache populated by an identical earlier call) must equal the same
call in a fresh session — at two seeds — and a session-held
pool must equal a per-call executor instance.  ``Session.figure`` must
equal :func:`repro.session.run_figure` given the policy's fields
explicitly.  Wall-clock fields (``mean_fit_seconds``) are measurements,
not results, and are excluded from comparison.
"""

import pytest

from repro.experiments.config import ScalePreset
from repro.runtime import PooledProcessExecutor, PooledThreadExecutor
from repro.session import ExecutionPolicy, Session, run_figure

#: No subsampling, so every call's prepared arrays land in (and are then
#: served from) the session cache.
IDENTITY = ScalePreset(name="tiny-identity", max_records=None, folds=3, repetitions=2)


def _scores(result):
    """The deterministic fields of an EvaluationResult (timings excluded)."""
    return (
        result.algorithm,
        result.task,
        result.mean_score,
        result.std_score,
        result.cells,
        result.n_train,
    )


def _sweep_scores(sweep):
    """The deterministic content of a SweepResult."""
    return (
        sweep.figure,
        sweep.panel,
        sweep.task,
        sweep.parameter,
        sweep.values,
        {
            name: tuple(_scores(point) for point in points)
            for name, points in sweep.series.items()
        },
    )


def _warm_and_fresh(policy, call):
    """``call(session)`` in a session that already ran it, and in a new one."""
    with Session(policy) as warm:
        call(warm)
        again = call(warm)
    with Session(policy) as fresh:
        return again, call(fresh)


@pytest.mark.parametrize("seed", [11, 23])
class TestBitwiseEquivalence:
    def test_evaluate_algorithm(self, tiny_dataset, seed):
        warm, fresh = _warm_and_fresh(
            ExecutionPolicy(seed=seed),
            lambda s: s.evaluate("FM", tiny_dataset, "linear", 5, 1.0, preset=IDENTITY),
        )
        assert _scores(warm) == _scores(fresh)

    def test_evaluate_algorithms(self, tiny_dataset, seed):
        names = ["FM", "DPME", "NoPrivacy"]
        warm, fresh = _warm_and_fresh(
            ExecutionPolicy(),
            lambda s: s.evaluate_panel(
                names, tiny_dataset, "linear", 5, 0.8, preset=IDENTITY, seed=seed
            ),
        )
        assert {k: _scores(v) for k, v in warm.items()} == {
            k: _scores(v) for k, v in fresh.items()
        }

    @pytest.mark.parametrize("runtime", ["batched", "percell"])
    def test_evaluate_fm_budget_sweep(self, tiny_dataset, runtime, seed):
        warm, fresh = _warm_and_fresh(
            ExecutionPolicy(runtime=runtime),
            lambda s: s.budget_sweep(
                tiny_dataset, "linear", 5, [0.5, 2.0], preset=IDENTITY, seed=seed
            ),
        )
        assert {e: _scores(r) for e, r in warm.items()} == {
            e: _scores(r) for e, r in fresh.items()
        }

    def test_accuracy_sweep(self, tiny_dataset, seed):
        warm, fresh = _warm_and_fresh(
            ExecutionPolicy(),
            lambda s: s.sweep(
                tiny_dataset, "linear", "dimensionality", (5, 8), "figure4",
                preset=IDENTITY, seed=seed,
            ),
        )
        assert _sweep_scores(warm) == _sweep_scores(fresh)


class TestExecutorAndTilingEquivalence:
    """Session-held pools match a pool built and closed for one call."""

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_pooled_executor_matches_legacy(
        self, tiny_dataset, tiny_preset, executor
    ):
        per_call = {"thread": PooledThreadExecutor, "process": PooledProcessExecutor}
        policy = ExecutionPolicy(executor=executor, tile_size=1, max_workers=2)
        with per_call[executor](max_workers=2) as one_call_pool:
            one_shot = Session(policy).evaluate(
                "FM", tiny_dataset, "linear", 5, 1.0, preset=tiny_preset, seed=4,
                executor=one_call_pool,
            )
        with Session(policy) as session:
            pooled = session.evaluate(
                "FM", tiny_dataset, "linear", 5, 1.0, preset=tiny_preset, seed=4
            )
        assert _scores(pooled) == _scores(one_shot)

    def test_percell_generic_through_pool(self, tiny_dataset, tiny_preset):
        policy = ExecutionPolicy(runtime="percell", executor="process", max_workers=2)
        with PooledProcessExecutor(max_workers=2) as one_call_pool:
            one_shot = Session(policy).evaluate(
                "DPME", tiny_dataset, "linear", 5, 1.0, preset=tiny_preset, seed=8,
                executor=one_call_pool,
            )
        with Session(policy) as session:
            pooled = session.evaluate(
                "DPME", tiny_dataset, "linear", 5, 1.0, preset=tiny_preset, seed=8
            )
        assert _scores(pooled) == _scores(one_shot)


class TestFigureDispatch:
    """Session.figure == run_figure with the policy's fields spelled out."""

    def test_figure_drivers_match_session(self, tiny_dataset):
        preset = ScalePreset(name="micro", max_records=200, folds=2, repetitions=1)
        session = Session(ExecutionPolicy())
        cases = [
            ("figure4", "linear", None),
            ("figure5", "linear", (0.5, 1.0)),
            ("figure6", "linear", None),
            ("figure7", None, None),
            ("figure8", None, (1.0,)),
            ("figure9", None, None),
        ]
        for name, task, values in cases:
            direct = run_figure(
                name, tiny_dataset, task, preset=preset, seed=1,
                runtime="batched", executor="serial", tile_size=None,
                values=values,
            )
            new = session.figure(
                name, tiny_dataset, task, preset=preset, seed=1, values=values
            )
            assert _sweep_scores(new) == _sweep_scores(direct), name
