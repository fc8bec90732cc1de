"""Per-layer wrappers for the benchmark's traced run, and their totals.

The program is never edited: :func:`install` replaces the public
functions of each layer with thin wrappers that open a span named
``bench:<layer>.<what>`` on the ambient :mod:`repro.obs` recorder.  Class
methods are patched on the class; module functions are patched in the
defining module *and* in every module that imported them by name
(``repro.baselines.dpme`` binds ``histogram_counts`` at import time).

Because the spans live on the ambient recorder, the runtime's own
worker-trace merge carries spans opened inside forked pool workers back
to the parent: install before the executor pool forks and the workers
inherit the patched functions.  Untraced runs never call :func:`install`.

:func:`layer_totals` folds the recorded spans into per-layer self times
whose rows, with ``unattributed_s``, sum to the traced wall time.  Work
done inside pool workers is charged to the wall by its share of the
pool: a map over ``N`` workers that lasted ``T`` seconds contributes
``busy / N`` of its children and keeps the rest (idle workers, pickling,
dispatch) as ``runtime`` self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

from repro.obs import active_recorder

PREFIX = "bench:"
LAYERS = ("data", "runtime", "baselines", "engine", "privacy", "serve")
ROOT = PREFIX + "workload"
MAP = PREFIX + "runtime.executor_map"
WORKER_ITEM = PREFIX + "runtime.worker_item"

_KERNELS = (
    "fm_noise_stack",
    "spectral_trim_stack",
    "spectral_solve_stack",
    "posdef_split_stack",
    "posdef_or_pinv_solve_stack",
    "normal_equations_solve_stack",
    "newton_logistic_stack",
)

# (span name, defining module, attribute, other modules holding the name)
_TARGETS = (
    ("data.load", "repro.data.census", "load_us", ("repro.data",)),
    ("runtime.moment_blocks", "repro.runtime.plan", "PreparedDataCache.moment_blocks", ()),
    ("runtime.tile", "repro.runtime.plan", "TiledPlan.tile", ()),
    *(
        (
            f"runtime.kernel.{name}",
            "repro.runtime.kernels",
            name,
            ("repro.runtime", "repro.runtime.runner", "repro.engine.sweep"),
        )
        for name in _KERNELS
    ),
    ("baselines.fit.DPME", "repro.baselines.dpme", "DPME.fit", ()),
    ("baselines.fit.FP", "repro.baselines.filter_priority", "FilterPriority.fit", ()),
    (
        "baselines.histogram_counts",
        "repro.baselines.histogram",
        "histogram_counts",
        ("repro.baselines", "repro.baselines.dpme", "repro.baselines.filter_priority"),
    ),
    (
        "baselines.synthesize",
        "repro.baselines.synthesize",
        "synthesize_from_counts",
        ("repro.baselines", "repro.baselines.dpme", "repro.baselines.filter_priority"),
    ),
    (
        "baselines.synthetic_fit",
        "repro.baselines.dpme",
        "fit_on_synthetic",
        ("repro.baselines", "repro.baselines.filter_priority"),
    ),
    ("engine.update", "repro.engine.accumulator", "MomentAccumulator.update", ()),
    ("engine.sweep", "repro.engine.sweep", "EpsilonSweepEngine.sweep", ()),
    ("privacy.spend", "repro.privacy.budget", "PrivacyBudget.spend", ()),
    ("serve.parse_ingest", "repro.serve.protocol", "parse_ingest_request", ("repro.serve.app",)),
    ("serve.app_ingest", "repro.serve.app", "ServeApp.ingest", ()),
    ("serve.app_fit", "repro.serve.app", "ServeApp.fit", ()),
    ("serve.snapshot", "repro.serve.state", "TenantState.snapshot", ()),
)

#: Restore list of the live installation: (owner, attribute, original).
_installed: list[tuple[object, str, object]] = []


def _timed(name: str, fn):
    span = PREFIX + name
    counts_rows = name == "engine.update"  # (self, X, y): record len(X)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        attrs = {"t": time.perf_counter()}
        if counts_rows:
            attrs["rows"] = len(args[1])
        with active_recorder().span(span, **attrs):
            return fn(*args, **kwargs)

    wrapper.perfbench_span = span
    return wrapper


class TimedWork:
    """Picklable work wrapper: one ``worker_item`` span per executed item."""

    def __init__(self, work) -> None:
        self.work = work

    def __call__(self, item):
        with active_recorder().span(WORKER_ITEM, t=time.perf_counter()):
            return self.work(item)


def _timed_map(fn):
    @functools.wraps(fn)
    def wrapper(self, work, items):
        workers = 1 if len(items) <= 1 else int(getattr(self, "max_workers", 1) or 1)
        with active_recorder().span(MAP, t=time.perf_counter(), workers=workers):
            return fn(self, TimedWork(work), items)

    wrapper.perfbench_span = MAP
    return wrapper


class _JsonProxy:
    """Stands in for the ``json`` module inside ``repro.serve.http``."""

    def __init__(self, real) -> None:
        self._real = real
        self.loads = _timed("serve.decode", real.loads)

    def __getattr__(self, name):
        return getattr(self._real, name)


def _owner_and_attr(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


def _patch(owner, attr: str, value) -> None:
    _installed.append((owner, attr, getattr(owner, attr)))
    setattr(owner, attr, value)


def install() -> None:
    """Wrap every target; idempotent.  Call before any pool forks."""
    if _installed:
        return
    for name, module_name, path, aliases in _TARGETS:
        owner, attr = _owner_and_attr(module_name, path)
        original = getattr(owner, attr)
        wrapper = _timed(name, original)
        _patch(owner, attr, wrapper)
        for alias in aliases:
            module = importlib.import_module(alias)
            if getattr(module, attr, None) is original:
                _patch(module, attr, wrapper)
    pooled = importlib.import_module("repro.runtime.executor").PooledProcessExecutor
    _patch(pooled, "map", _timed_map(pooled.map))
    http = importlib.import_module("repro.serve.http")
    _patch(http, "json", _JsonProxy(json))


def uninstall() -> None:
    """Restore every patched attribute (reverse order)."""
    while _installed:
        owner, attr, original = _installed.pop()
        setattr(owner, attr, original)


def patched_attributes() -> list[str]:
    """Names of target attributes currently replaced by a wrapper."""
    found = []
    for name, module_name, path, aliases in _TARGETS:
        for module in (module_name, *aliases):
            try:
                owner, attr = _owner_and_attr(module, path)
            except (ImportError, AttributeError):
                continue
            if hasattr(getattr(owner, attr, None), "perfbench_span"):
                found.append(f"{module}:{path}")
    if hasattr(importlib.import_module("repro.runtime.executor").PooledProcessExecutor.map, "perfbench_span"):
        found.append("repro.runtime.executor:PooledProcessExecutor.map")
    if isinstance(importlib.import_module("repro.serve.http").json, _JsonProxy):
        found.append("repro.serve.http:json")
    return found


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def bench_events(events: list[dict]) -> list[dict]:
    """The benchmark's spans, each with ``bparent``: its nearest bench ancestor.

    Program spans between two bench spans are skipped over, so nesting is
    measured among the benchmark's own spans only.
    """
    by_id = {event["id"]: event for event in events}
    out = []
    for event in events:
        if not event["name"].startswith(PREFIX):
            continue
        parent = event.get("parent")
        while parent is not None and parent in by_id:
            if by_id[parent]["name"].startswith(PREFIX):
                break
            parent = by_id[parent].get("parent")
        if parent is not None and parent not in by_id:
            parent = None
        attrs = event.get("attrs") or {}
        out.append(
            {
                "id": event["id"],
                "bparent": parent,
                "name": event["name"],
                "seconds": event["seconds"],
                "t": attrs.get("t", 0.0),
                "workers": attrs.get("workers", 1),
                "rows": attrs.get("rows", 0),
            }
        )
    return out


def _layer_of(name: str) -> str:
    return name[len(PREFIX):].split(".", 1)[0]


def function_totals(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Inclusive seconds and call count per span name (workers summed)."""
    totals: dict[str, dict[str, float]] = {}
    for span in spans:
        entry = totals.setdefault(span["name"][len(PREFIX):], {"s": 0.0, "calls": 0})
        entry["s"] += span["seconds"]
        entry["calls"] += 1
    return totals


def layer_totals(spans: list[dict], root_id: int) -> dict[str, float]:
    """Wall-share self time per layer under one root span.

    Each span keeps its duration minus its children's, where children of
    an executor map count ``1 / workers`` of their time; a span's share of
    the wall is its parent's share times that same factor.  The root's
    own self time is ``unattributed``; the values sum to the root's
    duration.
    """
    children: dict[int, list[dict]] = {}
    for span in spans:
        if span["bparent"] is not None:
            children.setdefault(span["bparent"], []).append(span)
    root = next(span for span in spans if span["id"] == root_id)
    rows = {layer: 0.0 for layer in LAYERS}
    rows["unattributed"] = 0.0
    stack = [(root, 1.0)]
    while stack:
        span, share = stack.pop()
        factor = 1.0 / span["workers"] if span["name"] == MAP else 1.0
        kids = children.get(span["id"], [])
        own = span["seconds"] - factor * sum(kid["seconds"] for kid in kids)
        key = "unattributed" if span is root else _layer_of(span["name"])
        rows[key] += share * own
        stack.extend((kid, share * factor) for kid in kids)
    return rows


def self_times(spans: list[dict]) -> dict[str, float]:
    """Plain self time per layer over concurrent roots (no pool sharing)."""
    child_seconds: dict[int, float] = {}
    for span in spans:
        if span["bparent"] is not None:
            child_seconds[span["bparent"]] = child_seconds.get(span["bparent"], 0.0) + span["seconds"]
    rows = {layer: 0.0 for layer in LAYERS}
    for span in spans:
        rows[_layer_of(span["name"])] += span["seconds"] - child_seconds.get(span["id"], 0.0)
    return rows


#: Baselines whose ``fit`` runs per cell.  NoPrivacy and Truncated never
#: call ``fit`` under the batched runtime: their cells are stacked solves,
#: timed under ``runtime.kernels_s``.
BASELINES = ("DPME", "FP")

#: Every per-layer metric: (name, unit, better).  ``BENCHMARK.json`` lists
#: the same names; the self-test keeps the two in step.  The table load
#: happens before the timed call, so ``data`` has no self-time row; its
#: cost is ``data.load_s``.
PER_LAYER = (
    *((f"self_s.{layer}", "s", "lower") for layer in LAYERS if layer != "data"),
    ("unattributed_s", "s", "lower"),
    ("traced_wall_s", "s", "lower"),
    ("obs.trace_overhead", "ratio", "lower"),
    ("data.load_s", "s", "lower"),
    ("runtime.moment_blocks_s", "s", "lower"),
    ("runtime.moment_blocks_calls", "count", "lower"),
    ("runtime.prepared_cache_hit_ratio", "ratio", "higher"),
    ("runtime.tile_s", "s", "lower"),
    ("runtime.tiles", "count", "lower"),
    ("runtime.kernels_s", "s", "lower"),
    ("runtime.kernel_calls", "count", "lower"),
    ("runtime.newton_iterations_per_cell", "count", "lower"),
    ("runtime.executor_map_s", "s", "lower"),
    ("runtime.executor_busy_ratio", "ratio", "higher"),
    ("runtime.executor_retries", "count", "lower"),
    *((f"baselines.fit_s.{name}", "s", "lower") for name in BASELINES),
    *((f"baselines.fits.{name}", "count", "lower") for name in BASELINES),
    ("baselines.histogram_counts_s", "s", "lower"),
    ("baselines.histogram_counts_calls", "count", "lower"),
    ("baselines.synthesize_s", "s", "lower"),
    ("baselines.synthetic_fit_s", "s", "lower"),
    ("engine.update_s", "s", "lower"),
    ("engine.rows", "count", "higher"),
    ("engine.sweep_s", "s", "lower"),
    ("engine.sweep_calls", "count", "lower"),
    ("privacy.spend_s", "s", "lower"),
    ("privacy.spends", "count", "higher"),
    ("serve.decode_s", "s", "lower"),
    ("serve.parse_ingest_s", "s", "lower"),
    ("serve.app_ingest_s", "s", "lower"),
    ("serve.app_fit_s", "s", "lower"),
    ("serve.outside_app_ms.ingest", "ms", "lower"),
    ("serve.outside_app_ms.fit", "ms", "lower"),
    ("serve.snapshot_s", "s", "lower"),
    ("serve.snapshot_calls", "count", "lower"),
    ("serve.rejections", "count", "lower"),
)


def per_layer(
    spans: list[dict],
    counters: dict,
    rows: dict[str, float],
    traced_wall: float,
    untraced_wall: float,
    outside_app_ms: dict[str, float] | None = None,
) -> dict[str, float]:
    """Every :data:`PER_LAYER` value from one traced run's spans and counters."""
    by_id = {span["id"]: span for span in spans}
    totals = function_totals(spans)
    seconds = lambda key: totals.get(key, {}).get("s", 0.0)  # noqa: E731
    calls = lambda key: totals.get(key, {}).get("calls", 0)  # noqa: E731
    count = lambda *keys: sum(int(counters.get(key, 0)) for key in keys)  # noqa: E731
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731

    def outermost(prefix: str) -> list[dict]:
        """Spans named ``prefix...`` with no such span among their ancestors."""
        found = []
        for span in spans:
            if not span["name"].startswith(prefix):
                continue
            parent = by_id.get(span["bparent"])
            while parent is not None and not parent["name"].startswith(prefix):
                parent = by_id.get(parent["bparent"])
            if parent is None:
                found.append(span)
        return found

    kernels = outermost(PREFIX + "runtime.kernel.")
    # A map over one item runs inline and may hold the pool's real maps.
    pooled = {span["id"]: span for span in spans if span["name"] == MAP and span["workers"] > 1}
    busy = sum(
        span["seconds"] for span in spans
        if span["name"] == WORKER_ITEM and span["bparent"] in pooled
    )
    hits = count("prepared_cache.task_hits", "prepared_cache.moment_hits")
    misses = count("prepared_cache.task_misses", "prepared_cache.moment_misses")
    outside = outside_app_ms or {}
    values = {f"self_s.{layer}": rows[layer] for layer in LAYERS if layer != "data"}
    values.update({
        "unattributed_s": rows["unattributed"],
        "traced_wall_s": traced_wall,
        "obs.trace_overhead": ratio(traced_wall, untraced_wall),
        "data.load_s": seconds("data.load"),
        "runtime.moment_blocks_s": seconds("runtime.moment_blocks"),
        "runtime.moment_blocks_calls": calls("runtime.moment_blocks"),
        "runtime.prepared_cache_hit_ratio": ratio(hits, hits + misses),
        "runtime.tile_s": seconds("runtime.tile"),
        "runtime.tiles": calls("runtime.tile"),
        "runtime.kernels_s": sum(span["seconds"] for span in kernels),
        "runtime.kernel_calls": len(kernels),
        "runtime.newton_iterations_per_cell": ratio(
            count("newton.iterations"), count("newton.cells")
        ),
        "runtime.executor_map_s": sum(span["seconds"] for span in outermost(MAP)),
        "runtime.executor_busy_ratio": ratio(
            busy, sum(span["seconds"] * span["workers"] for span in pooled.values())
        ),
        "runtime.executor_retries": count(
            "executor.retries", "executor.fallbacks",
            "executor.pool_rebuilds", "executor.worker_crashes",
        ),
        "baselines.histogram_counts_s": seconds("baselines.histogram_counts"),
        "baselines.histogram_counts_calls": calls("baselines.histogram_counts"),
        "baselines.synthesize_s": seconds("baselines.synthesize"),
        "baselines.synthetic_fit_s": seconds("baselines.synthetic_fit"),
        "engine.update_s": seconds("engine.update"),
        "engine.rows": sum(span["rows"] for span in spans),
        "engine.sweep_s": seconds("engine.sweep"),
        "engine.sweep_calls": calls("engine.sweep"),
        "privacy.spend_s": seconds("privacy.spend"),
        "privacy.spends": calls("privacy.spend"),
        "serve.decode_s": seconds("serve.decode"),
        "serve.parse_ingest_s": seconds("serve.parse_ingest"),
        "serve.app_ingest_s": seconds("serve.app_ingest"),
        "serve.app_fit_s": seconds("serve.app_fit"),
        "serve.outside_app_ms.ingest": outside.get("ingest", 0.0),
        "serve.outside_app_ms.fit": outside.get("fit", 0.0),
        "serve.snapshot_s": seconds("serve.snapshot"),
        "serve.snapshot_calls": calls("serve.snapshot"),
        "serve.rejections": count(
            "serve.shed_requests", "serve.internal_errors", "serve.budget_refusals"
        ),
    })
    for name in BASELINES:
        values[f"baselines.fit_s.{name}"] = seconds(f"baselines.fit.{name}")
        values[f"baselines.fits.{name}"] = calls(f"baselines.fit.{name}")
    return values
