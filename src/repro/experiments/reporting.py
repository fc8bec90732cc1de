"""Rendering experiment results as the paper's rows and series.

The original figures are line plots; in a terminal reproduction the
equivalent artifact is an aligned table with one row per sweep value and one
column per algorithm, plus a panel header naming the figure.  These tables
are what the benchmark suite prints and what EXPERIMENTS.md records.
"""

from __future__ import annotations

from typing import Sequence

from .figures import ObjectiveCurve, SweepResult

__all__ = [
    "format_sweep_table",
    "format_time_table",
    "format_objective_curve",
    "summarize_ordering",
]

_PARAM_LABEL = {
    "dimensionality": "dimensionality",
    "sampling_rate": "sampling rate",
    "epsilon": "privacy budget eps",
}


def _metric_label(task: str) -> str:
    return "mean square error" if task == "linear" else "misclassification rate"


def _render_table(
    title: str,
    row_label: str,
    values: Sequence,
    columns: dict[str, Sequence[float]],
    value_format: str = "{:.4f}",
) -> str:
    names = list(columns)
    width = max(12, max(len(n) for n in names) + 2)
    header = f"{row_label:>16} " + "".join(f"{n:>{width}}" for n in names)
    lines = [title, "=" * len(header), header, "-" * len(header)]
    for i, v in enumerate(values):
        v_str = f"{v:g}" if isinstance(v, float) else str(v)
        cells = "".join(
            f"{value_format.format(columns[n][i]):>{width}}" for n in names
        )
        lines.append(f"{v_str:>16} " + cells)
    lines.append("=" * len(header))
    return "\n".join(lines)


def format_sweep_table(result: SweepResult) -> str:
    """Accuracy view of a sweep panel (Figures 4-6)."""
    title = (
        f"{result.figure} / {result.panel}: {_metric_label(result.task)} "
        f"vs {_PARAM_LABEL[result.parameter]}"
    )
    columns = {name: result.metric_series(name) for name in result.series}
    return _render_table(title, _PARAM_LABEL[result.parameter], result.values, columns)


def format_time_table(result: SweepResult) -> str:
    """Timing view of a sweep panel (Figures 7-9)."""
    title = (
        f"{result.figure} / {result.panel}: computation time (seconds) "
        f"vs {_PARAM_LABEL[result.parameter]}"
    )
    columns = {name: result.time_series(name) for name in result.series}
    return _render_table(
        title, _PARAM_LABEL[result.parameter], result.values, columns,
        value_format="{:.4g}",
    )


def format_objective_curve(curve: ObjectiveCurve, labels: tuple[str, str]) -> str:
    """Compact rendering of a Figure-2/3 curve pair: coefficients + minima."""
    lines = []
    if curve.exact_coefficients:
        a, b, c = curve.exact_coefficients
        lines.append(f"{labels[0]}: {a:.4g} w^2 + {b:.4g} w + {c:.4g}")
    else:
        lines.append(f"{labels[0]}: (non-polynomial objective)")
    a, b, c = curve.perturbed_coefficients
    lines.append(f"{labels[1]}: {a:.4g} w^2 + {b:.4g} w + {c:.4g}")
    lines.append(
        f"argmin over grid: {labels[0]} -> {curve.minimizers[0]:.4f}, "
        f"{labels[1]} -> {curve.minimizers[1]:.4f}"
    )
    max_gap = float(abs(curve.exact - curve.perturbed).max())
    lines.append(f"max |difference| on grid: {max_gap:.4f}")
    return "\n".join(lines)


def summarize_ordering(result: SweepResult) -> dict[str, bool]:
    """Check the paper's headline orderings on a sweep panel.

    Returns flags used by benches/tests to assert reproduction quality:

    ``fm_beats_dpme`` / ``fm_beats_fp``
        FM's mean metric is no worse than the synthetic-data baselines,
        averaged over the sweep.
    ``noprivacy_best``
        NoPrivacy's average metric is the lowest of all algorithms.
    """
    averages = {
        name: sum(result.metric_series(name)) / len(result.values)
        for name in result.series
    }
    flags: dict[str, bool] = {}
    if "FM" in averages and "DPME" in averages:
        flags["fm_beats_dpme"] = averages["FM"] <= averages["DPME"] * 1.02
    if "FM" in averages and "FP" in averages:
        flags["fm_beats_fp"] = averages["FM"] <= averages["FP"] * 1.02
    if "NoPrivacy" in averages:
        flags["noprivacy_best"] = all(
            averages["NoPrivacy"] <= v * 1.02 for v in averages.values()
        )
    return flags
