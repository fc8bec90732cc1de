"""Stand-alone timing measurements (Figures 7-9 and the efficiency claims).

The sweep drivers (Figures 7-9) record per-fit wall time through the cell
runtime; this module provides the lower-level :func:`time_fit` used by the
ablation benches and a :func:`fm_speedup_over` helper that computes the
headline Figure-7 claim ("the running time of FM is at least one order of
magnitude lower than that of NoPrivacy" for logistic regression).

``time_fit`` is itself expressed over the runtime rather than a private
per-cell loop: the repetitions are planned as single-fold cells of a
:class:`~repro.runtime.CellPlan` (one repetition per fold, training on all
rows) and executed through the per-cell reference path.  The measurement
comes from :mod:`repro.obs`: the plan runs under a local
:class:`~repro.obs.TraceRecorder` and the durations are the runtime's
``cell.fit`` spans — the same span, wrapping exactly ``model.fit``, that
every traced run records, so the numbers are identical to the historical
fit-only ``perf_counter`` clock this module used to keep by hand.  Each
repetition's noise stream is ``derive_substream(seed, [rep])``, the plan's
stream tag for that repetition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..baselines.base import Task
from ..exceptions import ExperimentError
from ..obs import TraceRecorder, active_recorder, use_recorder
from ..runtime import KERNEL_GENERIC, CellExecutor, CellPlan, PlannedFold, run_plan

__all__ = ["FitTiming", "time_fit", "fm_speedup_over"]


@dataclass(frozen=True)
class FitTiming:
    """Wall-clock statistics for repeated fits of one algorithm."""

    algorithm: str
    mean_seconds: float
    min_seconds: float
    repetitions: int


def _timing_plan(
    algorithm: str,
    X: np.ndarray,
    y: np.ndarray,
    task: Task,
    epsilon: float,
    repetitions: int,
    seed: int,
    kwargs: Mapping,
) -> CellPlan:
    """Plan ``repetitions`` train-on-everything cells over fixed arrays.

    Each repetition is one planned fold whose training split is the whole
    dataset and whose stream tag is ``(rep,)``, so repetition ``rep``
    draws from ``derive_substream(seed, [rep])``.  The single-row test
    split only feeds the (discarded) score; fit timing is measured around
    ``fit`` alone, as before.
    """
    from .config import ScalePreset  # lazy: config imports nothing from here

    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if repetitions < 1:
        raise ExperimentError(f"repetitions must be >= 1, got {repetitions}")
    n = X.shape[0]
    folds = tuple(
        PlannedFold(
            rep=rep,
            fold=0,
            X=X,
            y=y,
            train_idx=np.arange(n),
            test_idx=np.arange(min(1, n)),
            stream_tag=(rep,),
        )
        for rep in range(int(repetitions))
    )
    return CellPlan(
        algorithm=algorithm,
        task=task,
        dims=X.shape[1],
        dim=X.shape[1],
        epsilons=(float(epsilon),),
        preset=ScalePreset(name="timing", max_records=None, folds=2, repetitions=int(repetitions)),
        sampling_rate=1.0,
        seed=int(seed),
        algorithm_kwargs=dict(kwargs),
        folds=folds,
        # Timing wants individual per-fit clocks, which only the per-cell
        # path reports; the generic tag keeps batched dispatch away even if
        # a caller passes mode="batched".
        kernel=KERNEL_GENERIC,
    )


def time_fit(
    algorithm: str,
    X: np.ndarray,
    y: np.ndarray,
    task: Task,
    epsilon: float = 0.8,
    repetitions: int = 3,
    seed: int = 0,
    algorithm_kwargs: Mapping | None = None,
    executor: str | CellExecutor = "serial",
) -> FitTiming:
    """Time ``fit`` for one algorithm on fixed data.

    A fresh model (and fresh noise stream) is constructed per repetition so
    private algorithms cannot amortize anything across fits.  Execution
    goes through the cell runtime's per-cell path; ``executor`` spreads
    repetitions when timing on an idle multi-core box (the default serial
    executor measures one fit at a time, which is what the figures report).
    """
    plan = _timing_plan(
        algorithm, X, y, task, epsilon, repetitions, seed, dict(algorithm_kwargs or {})
    )
    # A local trace recorder observes the run; the fit durations are read
    # back from the ``cell.fit`` spans rather than a private clock.  If an
    # outer recorder is active (a traced session timing a fit), the local
    # activity is merged into it so the outer trace still sees everything.
    outer = active_recorder()
    recorder = TraceRecorder(mode="trace")
    with use_recorder(recorder):
        run_plan(plan, mode="percell", executor=executor)
    durations = [
        event["seconds"] for event in recorder.events() if event["name"] == "cell.fit"
    ]
    if outer.recording:
        outer.merge(recorder.export())
    return FitTiming(
        algorithm=algorithm,
        mean_seconds=float(np.mean(durations)),
        min_seconds=float(np.min(durations)),
        repetitions=int(repetitions),
    )


def fm_speedup_over(
    baseline: str,
    X: np.ndarray,
    y: np.ndarray,
    task: Task = "logistic",
    epsilon: float = 0.8,
    repetitions: int = 3,
    seed: int = 0,
) -> float:
    """Ratio ``time(baseline) / time(FM)`` on the given data.

    The paper's Figure-7 discussion reports this at >= 10 for
    ``baseline="NoPrivacy"`` on the logistic task: FM solves one quadratic
    program while NoPrivacy iterates Newton steps over every tuple.
    """
    fm = time_fit("FM", X, y, task, epsilon=epsilon, repetitions=repetitions, seed=seed)
    other = time_fit(
        baseline, X, y, task, epsilon=epsilon, repetitions=repetitions, seed=seed + 1
    )
    return other.mean_seconds / max(fm.mean_seconds, 1e-12)
