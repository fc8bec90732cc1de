"""The Section-7 evaluation protocol: repeated k-fold cross-validation.

"In each experiment, we perform 5-fold cross-validation 50 times for each
algorithm, and we report the average results."  This module implements that
protocol over the uniform :class:`~repro.baselines.base.BaselineRegressor`
interface: every (repetition, fold) trains the algorithm on the training
split, scores the paper's metric on the held-out fold, and also records the
fit wall-time (feeding Figures 7-9).

Execution routes through :mod:`repro.runtime`: the protocol's cells are
enumerated into a :class:`~repro.runtime.plan.CellPlan` (eager) or — with
``tile_size`` set — a lazily materializing
:class:`~repro.runtime.plan.TiledPlan` that bounds resident memory to a few
repetitions at a time, and run either through the batched tensor kernels
(default — all closed-form cells in one stacked LAPACK call, logistic cells
through the masked batched Newton) or cell by cell as the reference oracle.
All paths produce bitwise-identical scores at any tiling and on any
executor; ``runtime="percell"`` exists to prove it and to time the
baseline.  :func:`_plan_algorithms` plans a whole algorithm panel as one
group — shared prepared-data cache, merged cross-algorithm stacked solves —
still bit-identical to evaluating each algorithm alone;
:func:`_evaluate_algorithms` runs one such group, and a sweep runs all of
its points' groups as one :func:`~repro.runtime.run_plan_groups` map.

Randomness plumbing: each (repetition, fold, algorithm) cell derives its own
RNG substream keyed by position, so results are reproducible and algorithms
see independent noise across cells regardless of execution order — or of
which runtime path executes them.

Budget sweeps have a dedicated fast path,
:func:`_evaluate_fm_budget_sweep`: because FM's database-level coefficients
do not depend on epsilon, each (repetition, fold) training split is
aggregated **once** and refit at every budget — O(1 data pass + n_eps
solves) instead of O(n_eps) passes.  It runs on the same two runtimes as
every other protocol call: ``"batched"`` refits every budget in one stacked
solve, ``"percell"`` is the cell-by-cell oracle.

The protocol bodies are private: :class:`repro.session.Session` and
:func:`repro.session.registry.run_figure` call them with every execution
argument taken from an :class:`~repro.session.ExecutionPolicy`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..baselines.base import Task
from ..core.objectives import objective_for
from ..data.datasets import CensusDataset
from ..exceptions import ExperimentError
from ..runtime import (
    CellExecutor,
    PlanResult,
    PreparedDataCache,
    plan_cells,
    plan_cells_tiled,
    TiledPlan,
    run_plan,
    run_plan_group,
)
from .config import DEFAULT, ScalePreset

__all__ = [
    "EvaluationResult",
    "objective_for",
]


@dataclass(frozen=True)
class EvaluationResult:
    """Aggregated cross-validated performance of one algorithm.

    Attributes
    ----------
    algorithm:
        Registry name (e.g. ``"FM"``).
    task:
        ``"linear"`` or ``"logistic"``.
    mean_score:
        Average held-out metric over all (repetition, fold) cells — MSE for
        linear, misclassification rate for logistic (lower is better).
    std_score:
        Standard deviation over cells.
    mean_fit_seconds:
        Average wall-clock time of ``fit`` (the paper's "computation
        time").  Batched-runtime cells report an equal share of their
        kernel's fit time (held-out scoring excluded, as in the per-cell
        clock); per-cell execution reports individual fits.
    cells:
        Number of (repetition, fold) measurements aggregated.
    n_train:
        Training-set size of each fold.
    """

    algorithm: str
    task: str
    mean_score: float
    std_score: float
    mean_fit_seconds: float
    cells: int
    n_train: int


def _result_for_epsilon(
    outcome: PlanResult, algorithm: str, task: Task, epsilon: float
) -> EvaluationResult:
    """Aggregate one epsilon's cells into the harness result type."""
    scores = outcome.scores[epsilon]
    return EvaluationResult(
        algorithm=algorithm,
        task=task,
        mean_score=float(np.mean(scores)),
        std_score=float(np.std(scores)),
        mean_fit_seconds=float(np.mean(outcome.fit_seconds[epsilon])),
        cells=len(scores),
        n_train=outcome.n_train,
    )


def _evaluate_algorithm(
    algorithm: str,
    dataset: CensusDataset,
    task: Task,
    dims: int,
    epsilon: float,
    preset: ScalePreset = DEFAULT,
    sampling_rate: float = 1.0,
    seed: int = 0,
    algorithm_kwargs: Mapping | None = None,
    *,
    runtime: str = "batched",
    executor: str | CellExecutor = "serial",
    tile_size: int | None = None,
    prepared_cache: PreparedDataCache | None = None,
) -> EvaluationResult:
    """Run the full repeated-CV protocol for one algorithm at one sweep point.

    Parameters
    ----------
    algorithm:
        Registry name; private algorithms receive ``epsilon``.
    dataset:
        The raw census dataset (sampling and normalization happen here).
    dims:
        Table-2 dimensionality (selects the paper's attribute subset).
    epsilon:
        Privacy budget per fit.
    preset:
        Compute scale (records cap, folds, repetitions).
    sampling_rate:
        Table-2 sampling rate, applied to the preset-capped cardinality.
    seed:
        Base seed; all cell substreams derive from it.
    algorithm_kwargs:
        Extra constructor arguments (ablation benches use this).
    runtime:
        ``"batched"`` executes supported algorithms through the stacked
        runtime kernels; ``"percell"`` forces the per-cell reference path.
        Scores are bitwise identical either way.
    executor:
        Where the work units run: one batched unit per tile and one unit
        per fold of a non-batchable baseline (of every algorithm under
        ``runtime="percell"``).
    tile_size:
        ``None`` plans eagerly; an integer bounds the resident set to that
        many repetitions per tile.  Scores are bitwise identical at every
        tiling.
    prepared_cache:
        Cross-call prepared-data reuse (a session passes its persistent
        cache).
    """
    if tile_size is None:
        plan = plan_cells(
            algorithm,
            dataset,
            task,
            dims=dims,
            epsilons=[epsilon],
            preset=preset,
            sampling_rate=sampling_rate,
            seed=seed,
            algorithm_kwargs=algorithm_kwargs,
            prepared_cache=prepared_cache,
        )
    else:
        plan = plan_cells_tiled(
            algorithm,
            dataset,
            task,
            dims=dims,
            epsilons=[epsilon],
            preset=preset,
            sampling_rate=sampling_rate,
            seed=seed,
            algorithm_kwargs=algorithm_kwargs,
            tile_size=tile_size,
            prepared_cache=prepared_cache,
        )
    outcome = run_plan(plan, mode=runtime, executor=executor)
    return _result_for_epsilon(outcome, algorithm, task, float(epsilon))


def _evaluate_fm_budget_sweep(
    dataset: CensusDataset,
    task: Task,
    dims: int,
    epsilons: Sequence[float],
    preset: ScalePreset = DEFAULT,
    sampling_rate: float = 1.0,
    seed: int = 0,
    post_processing: str = "spectral",
    tight_sensitivity: bool = False,
    *,
    runtime: str = "batched",
    executor: str | CellExecutor = "serial",
    tile_size: int | None = None,
    prepared_cache: PreparedDataCache | None = None,
) -> dict[float, EvaluationResult]:
    """Run FM's repeated-CV protocol at *all* budgets with one pass per cell.

    Mirrors :func:`_evaluate_algorithm` for the ``"FM"`` algorithm across
    an epsilon vector, but instead of refitting from the raw data per
    budget, each (repetition, fold) training split is aggregated exactly
    once and refit at every epsilon from the finalized coefficients.

    Unlike the per-point loop path — where every sweep point re-derives its
    own subsample and folds — all epsilons here share each repetition's
    folds; that is precisely what makes one pass possible, and the paper's
    protocol averages over folds either way.

    Parameters mirror :func:`_evaluate_algorithm`; additionally:

    post_processing / tight_sensitivity:
        Mechanism configuration, as the FM estimator kwargs would be.
        A non-spectral repair runs through the generic per-fold kernel
        under either runtime.
    """
    epsilon_values = [float(e) for e in epsilons]
    if not epsilon_values:
        raise ExperimentError("epsilons must be non-empty")
    fm_kwargs = {
        "post_processing": post_processing,
        "tight_sensitivity": tight_sensitivity,
    }
    if tile_size is None:
        plan = plan_cells(
            "FM",
            dataset,
            task,
            dims=dims,
            epsilons=epsilon_values,
            preset=preset,
            sampling_rate=sampling_rate,
            seed=seed,
            algorithm_kwargs=fm_kwargs,
            prepared_cache=prepared_cache,
        )
    else:
        plan = plan_cells_tiled(
            "FM",
            dataset,
            task,
            dims=dims,
            epsilons=epsilon_values,
            preset=preset,
            sampling_rate=sampling_rate,
            seed=seed,
            algorithm_kwargs=fm_kwargs,
            tile_size=tile_size,
            prepared_cache=prepared_cache,
        )
    outcome = run_plan(plan, mode=runtime, executor=executor)
    return {
        e: _result_for_epsilon(outcome, "FM", task, e) for e in epsilon_values
    }


def _plan_algorithms(
    algorithms: Sequence[str],
    dataset: CensusDataset,
    task: Task,
    dims: int,
    epsilon: float,
    preset: ScalePreset = DEFAULT,
    sampling_rate: float = 1.0,
    seed: int = 0,
    *,
    tile_size: int | None = None,
    prepared_cache: PreparedDataCache | None = None,
) -> list[TiledPlan]:
    """Plan one sweep point's algorithm panel as a group (nothing runs yet).

    All algorithms plan over one shared
    :class:`~repro.runtime.PreparedDataCache` — each repetition's prepared
    arrays (and, where training splits coincide, their Gram/moment blocks)
    materialize once for the whole panel instead of once per algorithm.

    The group always plans **tiled**: a group holds every algorithm's plan
    at once, so eager planning would multiply the peak resident set by the
    panel size whenever repetitions cannot share prepared arrays (any
    subsampled preset or sampling rate < 1).  With ``tile_size=None``
    residency is bounded at one repetition per algorithm — the
    minimal-memory schedule; a larger ``tile_size`` trades memory for
    fewer, larger units.  ``prepared_cache`` defaults to a fresh cache; a
    session passes its persistent one.
    """
    cache = PreparedDataCache() if prepared_cache is None else prepared_cache
    return [
        plan_cells_tiled(
            name,
            dataset,
            task=task,
            dims=dims,
            epsilons=[epsilon],
            preset=preset,
            sampling_rate=sampling_rate,
            seed=seed,
            tile_size=1 if tile_size is None else tile_size,
            prepared_cache=cache,
        )
        for name in algorithms
    ]


def _point_results(
    outcomes: Sequence[PlanResult], task: Task
) -> dict[str, EvaluationResult]:
    """One planned point's run outcomes as harness results keyed by name."""
    return {
        outcome.plan.algorithm: _result_for_epsilon(
            outcome, outcome.plan.algorithm, task, outcome.plan.epsilons[0]
        )
        for outcome in outcomes
    }


def _evaluate_algorithms(
    algorithms: Sequence[str],
    dataset: CensusDataset,
    task: Task,
    dims: int,
    epsilon: float,
    preset: ScalePreset = DEFAULT,
    sampling_rate: float = 1.0,
    seed: int = 0,
    *,
    runtime: str = "batched",
    executor: str | CellExecutor = "serial",
    tile_size: int | None = None,
    prepared_cache: PreparedDataCache | None = None,
) -> dict[str, EvaluationResult]:
    """Evaluate several algorithms at one sweep point; keyed by name.

    Plans the panel with :func:`_plan_algorithms` and runs it as one
    :func:`~repro.runtime.run_plan_group`, which merges the quadratic
    algorithms' closed-form solves into one stacked LAPACK call.  Results
    are bitwise identical to calling :func:`_evaluate_algorithm` per name
    (asserted by the runtime suite); only the wall-clock and peak memory
    differ.
    """
    plans = _plan_algorithms(
        algorithms, dataset, task, dims, epsilon, preset, sampling_rate, seed,
        tile_size=tile_size, prepared_cache=prepared_cache,
    )
    return _point_results(run_plan_group(plans, mode=runtime, executor=executor), task)
