"""Loading and summarizing trace files (`python -m repro trace summarize`).

Formatting lives here so the CLI subcommand stays a thin dispatcher and
tests can assert on the rendered report without spawning a process.

Besides the summary's per-name span rows, the report splits every span
that carries an ``algorithm`` attribute into ``name[algorithm]`` rows
(``cell.fit[DPME]``, ``cell.fit[FP]``, ...), built from the trace's span
events; a summary-mode trace has no events and so no split rows.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..exceptions import ReproError
from .schema import validate_trace_lines

__all__ = ["load_trace", "summarize_trace"]


def load_trace(path: str | Path) -> list[dict]:
    """Parse a JSONL trace file into its line objects, validating as we go."""
    path = Path(path)
    if not path.exists():
        raise ReproError(f"trace file not found: {path}")
    lines: list[dict] = []
    for number, raw in enumerate(path.read_text().splitlines(), start=1):
        if not raw.strip():
            continue
        try:
            lines.append(json.loads(raw))
        except json.JSONDecodeError as error:
            raise ReproError(f"{path}:{number}: not valid JSON ({error})") from None
    problems = validate_trace_lines(lines)
    if problems:
        detail = "; ".join(problems[:5])
        more = f" (+{len(problems) - 5} more)" if len(problems) > 5 else ""
        raise ReproError(f"{path}: trace does not conform to schema: {detail}{more}")
    return lines


def _split_by_algorithm(events: list[dict]) -> dict[str, dict]:
    """``name[algorithm]`` span stats from the events carrying that attribute."""
    rows: dict[str, dict] = {}
    for event in events:
        algorithm = event.get("attrs", {}).get("algorithm")
        if algorithm is None:
            continue
        stats = rows.setdefault(
            f"{event['name']}[{algorithm}]",
            {"count": 0, "total_seconds": 0.0, "max_seconds": 0.0},
        )
        stats["count"] += 1
        stats["total_seconds"] += event["seconds"]
        stats["max_seconds"] = max(stats["max_seconds"], event["seconds"])
    return rows


def summarize_trace(lines: list[dict]) -> str:
    """Render a human-readable report of one validated trace document."""
    meta = lines[0]
    summary = lines[-1]
    n_events = len(lines) - 2
    out: list[str] = []

    out.append(
        f"trace: mode={meta.get('mode')}  schema v{meta.get('version')}  "
        f"{n_events} span events"
        + (f"  ({meta['dropped_events']} dropped)" if meta.get("dropped_events") else "")
    )
    if "entry_point" in meta:
        out.append(f"entry point: {meta['entry_point']}")
    policy = meta.get("policy")
    if isinstance(policy, dict):
        rendered = ", ".join(f"{k}={v}" for k, v in sorted(policy.items()))
        out.append(f"policy: {rendered}")

    spans = {**summary.get("spans", {}), **_split_by_algorithm(lines[1:-1])}
    if spans:
        width = max(len(name) for name in spans)
        out.append("")
        out.append(
            f"{'span':<{width}}  {'count':>7}  {'total_s':>10}  {'mean_s':>10}  "
            f"{'max_s':>10}"
        )
        for name in sorted(spans, key=lambda n: -spans[n]["total_seconds"]):
            stats = spans[name]
            mean = stats["total_seconds"] / max(stats["count"], 1)
            out.append(
                f"{name:<{width}}  {stats['count']:>7}  "
                f"{stats['total_seconds']:>10.4f}  {mean:>10.4f}  "
                f"{stats['max_seconds']:>10.4f}"
            )

    counters = summary.get("counters", {})
    if counters:
        width = max(len(name) for name in counters)
        out.append("")
        out.append(f"{'counter':<{width}}  {'value':>12}")
        for name in sorted(counters):
            out.append(f"{name:<{width}}  {counters[name]:>12}")

    gauges = summary.get("gauges", {})
    if gauges:
        width = max(len(name) for name in gauges)
        out.append("")
        out.append(f"{'gauge':<{width}}  {'last':>12}  {'max':>12}")
        for name in sorted(gauges):
            entry = gauges[name]
            out.append(f"{name:<{width}}  {entry['last']:>12g}  {entry['max']:>12g}")

    if not (spans or counters or gauges):
        out.append("(trace contains no recorded activity)")
    return "\n".join(out)
