"""The figure-driver registry: one spec per sweep figure, one dispatch path.

The six sweep figures are data: a :class:`FigureSpec` names the swept
Table-2 parameter, its default values, whether the task is caller-chosen
or pinned (the timing figures are logistic-only, as in the paper), and
whether the figure has the one-pass FM budget-sweep fast path.
:func:`run_figure` is the single execution path every spec dispatches
through — the Session's :meth:`~repro.session.Session.figure` entry point
(and through it the CLI and the golden-oracle registry) lands here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..exceptions import ExperimentError
from ..experiments.config import (
    DIMENSIONALITIES,
    PRIVACY_BUDGETS,
    SAMPLING_RATES,
    ScalePreset,
)
from ..experiments.figures import SweepResult, _accuracy_sweep, _budget_sweep

__all__ = ["FigureSpec", "FIGURE_SPECS", "figure_spec", "run_figure"]


@dataclass(frozen=True)
class FigureSpec:
    """One sweep figure of the paper, as data.

    Attributes
    ----------
    name:
        Figure id (``"figure4"`` ... ``"figure9"``).
    parameter:
        The swept Table-2 parameter.
    values:
        Default sweep values (overridable per call on the non-budget
        figures, e.g. the cardinality figures' sampling rates).
    fixed_task:
        ``None`` when the caller chooses the panel task; ``"logistic"``
        for the timing figures ("we only report the results for logistic
        regression").
    budget_sweep:
        Whether the figure sweeps epsilon and therefore runs its FM series
        as the one-pass budget sweep (figures 6 and 9).
    kind:
        ``"accuracy"`` or ``"time"`` — which metric the figure plots
        (reporting concern only; both come from the same sweep).
    """

    name: str
    parameter: str
    values: tuple
    fixed_task: str | None
    budget_sweep: bool
    kind: str


FIGURE_SPECS: dict[str, FigureSpec] = {
    spec.name: spec
    for spec in (
        FigureSpec("figure4", "dimensionality", DIMENSIONALITIES, None, False, "accuracy"),
        FigureSpec("figure5", "sampling_rate", SAMPLING_RATES, None, False, "accuracy"),
        FigureSpec("figure6", "epsilon", PRIVACY_BUDGETS, None, True, "accuracy"),
        FigureSpec("figure7", "dimensionality", DIMENSIONALITIES, "logistic", False, "time"),
        FigureSpec("figure8", "sampling_rate", SAMPLING_RATES, "logistic", False, "time"),
        FigureSpec("figure9", "epsilon", PRIVACY_BUDGETS, "logistic", True, "time"),
    )
}


def figure_spec(name: str) -> FigureSpec:
    """Look a figure spec up by id."""
    try:
        return FIGURE_SPECS[name]
    except KeyError:
        raise ExperimentError(
            f"unknown figure {name!r}; expected one of {sorted(FIGURE_SPECS)}"
        ) from None


def run_figure(
    name: str,
    dataset,
    task: str | None,
    *,
    preset: ScalePreset,
    seed: int,
    runtime: str,
    executor,
    tile_size: int | None,
    values: Sequence | None = None,
    prepared_cache=None,
) -> SweepResult:
    """Execute one registered figure through the shared sweep machinery.

    ``task`` is required unless the spec pins it; ``values`` overrides the
    spec's sweep values (cardinality figures only — the budget figures'
    epsilon grid is part of their identity).
    """
    spec = figure_spec(name)
    if spec.fixed_task is not None:
        task = spec.fixed_task
    elif task is None:
        raise ExperimentError(f"{name} needs a task ('linear' or 'logistic')")
    if spec.budget_sweep:
        if values is not None:
            raise ExperimentError(
                f"{name} sweeps the fixed Table-2 budget grid; "
                "custom values are not supported"
            )
        return _budget_sweep(
            dataset,
            task,
            spec.name,
            preset,
            seed,
            runtime=runtime,
            executor=executor,
            tile_size=tile_size,
            prepared_cache=prepared_cache,
        )
    return _accuracy_sweep(
        dataset,
        task,
        spec.parameter,
        tuple(spec.values if values is None else values),
        figure=spec.name,
        preset=preset,
        seed=seed,
        runtime=runtime,
        executor=executor,
        tile_size=tile_size,
        prepared_cache=prepared_cache,
    )
