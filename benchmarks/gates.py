"""Performance gates: every speed, memory and overhead bound of the runtime.

The ``bench_figure*``, ``bench_table2_config`` and ``bench_ablation_*``
files reproduce the paper's evaluation; this module holds the bounds that
keep the layers under them from regressing.  Each gate runs one fixed
workload and asserts its bound together with the correctness it rests on
(a score digest that must not move):

=========  ===========================================================
class      what is asserted
=========  ===========================================================
cells      batched >= 5x per-cell on a figure-6 FM plan, scores
           bit-equal; the batched NoPrivacy-logistic Newton holds
           >= 0.5x per-cell, scores bit-equal
scaling    one digest across process-pool widths; one worker <= 2x
           serial; >= 1.5x serial at >= 4 cores (skipped below); a
           session-held pool <= 2x per-call pools, one digest
memory     ``tile_size=1`` peak RSS < 25% of the eager plan's, its
           cells/sec >= 0.5x eager, one digest across tilings
obs        telemetry ``summary`` <= 1.03x ``off``, one digest across
           off/summary/trace, trace records spans and off none
fault      the hardened executor <= 1.02x legacy fail-fast, one digest
serve      a live service under load: no failures, every fit verified
           strictly offline, >= 10 fits/s, >= 1000 ingest rows/s
federated  the coordinator's digest equals the single box's at K in
           {2, 4, 8} on both merge trees; < 25x the single box's time;
           > 5000 party ingest rows/s
=========  ===========================================================

Three bounds read the environment, because CI's shared runners gate at a
looser value: ``HARNESS_CELLS_FLOOR`` (3.5 on CI), ``HARNESS_SCALING_FLOOR``
(1.3) and ``OBS_OVERHEAD_GUARD`` (1.10).

Measurements that depend on process state (peak RSS, pools, warm caches)
run each configuration in a fresh interpreter (:func:`run_child`).  The
overhead gates compare modes whose true difference is below run-to-run
noise, so :func:`best_of` runs the modes interleaved and keeps each mode's
fastest time.  Run one gate with ``-k``::

    PYTHONPATH=src python -m pytest benchmarks/gates.py -q -k cells
"""

import hashlib
import json
import os
import subprocess
import sys
import time
from typing import Callable

import numpy as np
import pytest

from repro.experiments.config import PRIVACY_BUDGETS, ScalePreset
from repro.federated import (
    FederatedCoordinator,
    FederationSpec,
    centralized_fit,
    run_parties,
)
from repro.runtime import plan_cells, run_plan
from repro.serve.app import ServeApp
from repro.serve.check import verify_report
from repro.serve.http import ServeHTTP
from repro.serve.loadgen import LoadgenConfig, run_loadgen
from repro.session import ExecutionPolicy, Session

CELLS_FLOOR = float(os.environ.get("HARNESS_CELLS_FLOOR", "5.0"))
SCALING_FLOOR = float(os.environ.get("HARNESS_SCALING_FLOOR", "1.5"))
OBS_GUARD = float(os.environ.get("OBS_OVERHEAD_GUARD", "1.03"))

CPUS = os.cpu_count() or 1


def score_digest(scores) -> str:
    """SHA-256 over ``(label, values)`` pairs, each float byte for byte."""
    digest = hashlib.sha256()
    for label, values in scores:
        digest.update(str(label).encode())
        digest.update(np.asarray(values, dtype="<f8").tobytes())
    return digest.hexdigest()


#: Runs before every child snippet: ``ARGS`` holds :func:`run_child`'s
#: keyword arguments and ``emit`` prints the one JSON line the parent reads.
_PRELUDE = r"""
import json, sys, time
from repro.data.census import load_us
from repro.experiments.config import PRIVACY_BUDGETS, ScalePreset

ARGS = json.loads(sys.argv[1])


def emit(seconds, scores, **extra):
    scores = [[str(label), [float(v) for v in values]] for label, values in scores]
    print(json.dumps({"seconds": seconds, "scores": scores, **extra}))


def figure_scores(result):
    return [
        (name, [v for point in points for v in (point.mean_score, point.std_score)])
        for name, points in result.series.items()
    ]
"""


def run_child(snippet: str, **args) -> dict:
    """Run ``snippet`` in a fresh interpreter; return its last JSON line with
    the emitted scores replaced by their ``score_digest``."""
    result = subprocess.run(
        [sys.executable, "-c", _PRELUDE + snippet, json.dumps(args)],
        capture_output=True,
        text=True,
        check=False,
    )
    assert result.returncode == 0, f"child {args} failed:\n{result.stderr}"
    row = json.loads(result.stdout.strip().splitlines()[-1])
    row["score_digest"] = score_digest(row.pop("scores"))
    return row


def best_of(rounds: int, runs: dict[str, Callable[[], dict]]) -> dict[str, dict]:
    """Run every mode once per round, interleaved, keeping each mode's
    fastest ``seconds``; a mode's digest must not change between rounds.

    Interleaving makes slow drift on a busy box hit every mode alike.
    """
    rows: dict[str, dict] = {}
    for _ in range(rounds):
        for mode, run in runs.items():
            row = run()
            kept = rows.get(mode)
            if kept is not None:
                assert row["score_digest"] == kept["score_digest"], (mode, row, kept)
                row["seconds"] = min(row["seconds"], kept["seconds"])
            rows[mode] = row
    return rows


def _one_digest(rows: dict[str, dict]) -> None:
    digests = {row["score_digest"] for row in rows.values()}
    assert len(digests) == 1, rows


def _timed_plan(plan, mode: str) -> Callable[[], dict]:
    def run() -> dict:
        started = time.perf_counter()
        outcome = run_plan(plan, mode=mode)
        seconds = time.perf_counter() - started
        return {"seconds": seconds, "score_digest": score_digest(outcome.scores.items())}

    return run


# ----------------------------------------------------------------------
# cells: the batched runtime against the per-cell oracle, in process
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def cells(us_census) -> dict[str, dict]:
    """Figure-6 shape (Table-2 defaults, d = 14, 200k records, 5 folds, two
    repetitions, six budgets: 60 cells), both paths warmed, best of three."""
    preset = ScalePreset(name="figure6-cells", max_records=200_000, folds=5, repetitions=2)
    plan = plan_cells(
        "FM", us_census, "linear", dims=14, epsilons=PRIVACY_BUDGETS, preset=preset, seed=6
    )
    runs = {mode: _timed_plan(plan, mode) for mode in ("batched", "percell")}
    best_of(1, runs)  # warm caches and the allocator
    return best_of(3, runs)


@pytest.fixture(scope="module")
def newton(us_census) -> dict[str, dict]:
    """NoPrivacy logistic (masked batched Newton) on 50k records, 10 cells."""
    preset = ScalePreset(name="newton-cells", max_records=50_000, folds=5, repetitions=2)
    plan = plan_cells(
        "NoPrivacy", us_census, "logistic", dims=14, epsilons=[0.8], preset=preset, seed=6
    )
    run_plan(plan, mode="batched")
    return best_of(1, {mode: _timed_plan(plan, mode) for mode in ("batched", "percell")})


class TestCells:
    def test_batched_speedup_floor(self, cells):
        """Batching the epsilon axis collapses six aggregation passes into
        one (structural ceiling ~6.5x); losing that lands near 1x."""
        _one_digest(cells)
        speedup = cells["percell"]["seconds"] / cells["batched"]["seconds"]
        assert speedup >= CELLS_FLOOR, (
            f"batched runtime regressed: {speedup:.2f}x < {CELLS_FLOOR}x on the "
            f"figure-6 workload"
        )

    def test_newton_parity(self, newton):
        """Iterative cells batch orchestration, not arithmetic: the bar is
        parity (never worse than 2x slower), not a multiple."""
        _one_digest(newton)
        assert newton["percell"]["seconds"] / newton["batched"]["seconds"] >= 0.5, newton


# ----------------------------------------------------------------------
# scaling: the process-pool tile dispatch and the session-held pool
# ----------------------------------------------------------------------
#: FULL-shaped FM (16 reps x 5 folds x 6 budgets, 200k records) tiled one
#: repetition per tile, run serially (``workers == 0``) or on a pool.
_SCALING = r"""
from repro.runtime import plan_cells_tiled, run_plan
from repro.runtime.executor import PooledProcessExecutor, SerialExecutor

preset = ScalePreset(name="scaling", max_records=None, folds=5, repetitions=16)
plan = plan_cells_tiled(
    "FM", load_us(200_000), "linear", dims=14, epsilons=PRIVACY_BUDGETS,
    preset=preset, seed=11, tile_size=1,
)
workers = ARGS["workers"]
started = time.perf_counter()
with (SerialExecutor() if workers == 0 else PooledProcessExecutor(workers)) as executor:
    outcome = run_plan(plan, mode="batched", executor=executor)
emit(time.perf_counter() - started, outcome.scores.items())
"""

#: Eight consecutive FM evaluations (20k records, 4 reps x 5 folds,
#: process x2, tile_size=1), each on its own pool or on the session's.
_POOL = r"""
from repro.runtime import PooledProcessExecutor
from repro.session import ExecutionPolicy, Session

dataset = load_us(20_000)
preset = ScalePreset(name="pool", max_records=None, folds=5, repetitions=4)
scores = []
with Session(ExecutionPolicy(executor="process", tile_size=1, max_workers=2)) as session:
    started = time.perf_counter()
    for call in range(8):
        per_call = PooledProcessExecutor(max_workers=2) if ARGS["mode"] == "per-call" else None
        result = session.evaluate(
            "FM", dataset, "linear", dims=14, epsilon=0.8,
            preset=preset, seed=100 + call, executor=per_call,
        )
        if per_call is not None:
            per_call.close()
        scores.append((call, [result.mean_score, result.std_score]))
    emit(time.perf_counter() - started, scores)
"""

#: 0 is the serial reference; then pools of 1, 2 and every core.
WORKERS = (0, *sorted(w for w in {1, 2, CPUS} if w <= CPUS))


@pytest.fixture(scope="module")
def scaling() -> dict[int, dict]:
    return {workers: run_child(_SCALING, workers=workers) for workers in WORKERS}


@pytest.fixture(scope="module")
def pool_reuse() -> dict[str, dict]:
    return {mode: run_child(_POOL, mode=mode) for mode in ("per-call", "session")}


class TestScaling:
    def test_one_digest_across_worker_counts(self, scaling):
        _one_digest(scaling)

    def test_single_worker_overhead(self, scaling):
        """A one-worker pool adds fork and reduction, no parallelism."""
        assert scaling[1]["seconds"] <= 2.0 * scaling[0]["seconds"], scaling

    def test_multicore_speedup(self, scaling):
        if CPUS < 4:
            pytest.skip(f"only {CPUS} core(s) visible; the speedup needs at least 4")
        speedup = scaling[0]["seconds"] / scaling[CPUS]["seconds"]
        assert speedup >= SCALING_FLOOR, (
            f"process x{CPUS} speedup {speedup:.2f}x fell below {SCALING_FLOOR:.1f}x"
        )

    def test_pool_reuse(self, pool_reuse):
        """A held pool only guards against pathology, not missed wins."""
        _one_digest(pool_reuse)
        assert pool_reuse["session"]["seconds"] <= 2.0 * pool_reuse["per-call"]["seconds"]


# ----------------------------------------------------------------------
# memory: peak RSS of the tiled planner on a FULL-shaped protocol
# ----------------------------------------------------------------------
#: The paper's 50 repetitions x 5 folds x 6 budgets on 100k records, as
#: the eager plan or tiled (``tile_size`` 1, 4 or every repetition).
#: ``ru_maxrss`` is a per-process high-water mark, hence one child each.
_MEMORY = r"""
import resource
from repro.runtime import plan_cells, plan_cells_tiled, run_plan

dataset = load_us(100_000)
preset = ScalePreset(name="full-shaped", max_records=None, folds=5, repetitions=50)
config = ARGS["config"]
started = time.perf_counter()
if config == "eager":
    plan = plan_cells(
        "FM", dataset, "linear", dims=14, epsilons=PRIVACY_BUDGETS, preset=preset, seed=6,
    )
else:
    plan = plan_cells_tiled(
        "FM", dataset, "linear", dims=14, epsilons=PRIVACY_BUDGETS, preset=preset, seed=6,
        tile_size=None if config == "all" else int(config),
    )
outcome = run_plan(plan, mode="batched")
emit(
    time.perf_counter() - started, outcome.scores.items(), cells=plan.n_cells,
    peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
)
"""


@pytest.fixture(scope="module")
def memory() -> dict[str, dict]:
    return {config: run_child(_MEMORY, config=config) for config in ("eager", "1", "4", "all")}


class TestMemory:
    def test_one_digest_across_tilings(self, memory):
        _one_digest(memory)

    def test_tile1_peak_rss(self, memory):
        eager, tiled = memory["eager"]["peak_rss_mb"], memory["1"]["peak_rss_mb"]
        assert tiled < 0.25 * eager, (
            f"tile_size=1 peak RSS {tiled:.0f} MB is not under 25% of the eager "
            f"plan's {eager:.0f} MB"
        )

    def test_tile1_throughput(self, memory):
        """Per-tile dispatch must not give back the batched runtime's win."""
        eager, tiled = (memory[c]["cells"] / memory[c]["seconds"] for c in ("eager", "1"))
        assert tiled >= 0.5 * eager, (
            f"tile_size=1 {tiled:.1f} cells/sec fell below half the eager plan's {eager:.1f}"
        )


# ----------------------------------------------------------------------
# obs and fault: overheads of always-on machinery, interleaved best of 5
# ----------------------------------------------------------------------
#: One figure-6 sweep (4k records for obs, 3k for fault; 3 folds x 2
#: reps) after an untimed warm-up pass, under the given policy fields.
_FIGURE6 = r"""
from repro.session import ExecutionPolicy, Session

dataset = load_us(ARGS["records"])
preset = ScalePreset(name="overhead", max_records=None, folds=3, repetitions=2)
with Session(ExecutionPolicy(**ARGS["base"])) as warmup:
    warmup.figure("figure6", dataset, "linear", preset=preset)
with Session(ExecutionPolicy(**ARGS["base"], **ARGS["mode"])) as session:
    started = time.perf_counter()
    result = session.figure("figure6", dataset, "linear", preset=preset)
    seconds = time.perf_counter() - started
spans = session.telemetry_summary().get("spans", {}).values()
emit(seconds, figure_scores(result), spans_recorded=sum(int(s["count"]) for s in spans))
"""


def _figure6_modes(records: int, base: dict, modes: dict[str, dict]) -> dict[str, dict]:
    return best_of(
        5,
        {
            name: (lambda mode=mode: run_child(_FIGURE6, records=records, base=base, mode=mode))
            for name, mode in modes.items()
        },
    )


@pytest.fixture(scope="module")
def obs() -> dict[str, dict]:
    modes = {level: {"telemetry": level} for level in ("off", "summary", "trace")}
    return _figure6_modes(4000, {"seed": 17}, modes)


@pytest.fixture(scope="module")
def fault() -> dict[str, dict]:
    modes = {
        "legacy": {"max_retries": 0},  # the pre-hardening control flow
        "hardened": {},  # the shipped default
        "submit": {"tile_timeout": 120.0},  # per-item futures, sealed envelopes
    }
    return _figure6_modes(3000, {"executor": "process", "tile_size": 1, "seed": 17}, modes)


class TestObs:
    def test_one_digest_across_telemetry_levels(self, obs):
        _one_digest(obs)

    def test_summary_overhead(self, obs):
        off, summary = obs["off"]["seconds"], obs["summary"]["seconds"]
        assert summary <= OBS_GUARD * off, (
            f"summary mode {summary:.3f}s exceeded {OBS_GUARD:.0%} of off mode {off:.3f}s"
        )

    def test_trace_records_spans(self, obs):
        assert obs["trace"]["spans_recorded"] > 0
        assert obs["off"]["spans_recorded"] == 0


class TestFault:
    def test_one_digest_across_retry_policies(self, fault):
        _one_digest(fault)

    def test_hardened_overhead(self, fault):
        legacy, hardened = fault["legacy"]["seconds"], fault["hardened"]["seconds"]
        assert hardened <= 1.02 * legacy, (
            f"hardened default {hardened:.3f}s exceeded 102% of legacy fail-fast {legacy:.3f}s"
        )


# ----------------------------------------------------------------------
# serve: a live service with the WAL and periodic snapshots on
# ----------------------------------------------------------------------
SERVE_TENANTS, SERVE_FITS = 4, 8


@pytest.fixture(scope="module")
def serve(tmp_path_factory) -> tuple[dict, dict]:
    """4 concurrent tenants, 4 x 250 rows and 8 two-budget fits each."""
    data_dir = tmp_path_factory.mktemp("serve") / "data"
    policy = ExecutionPolicy(scale="smoke", telemetry="summary", failure_mode="fallback")
    http = ServeHTTP(ServeApp(data_dir, Session(policy)), port=0, snapshot_interval=0.5)
    thread = http.start_background()
    try:
        report = run_loadgen(
            LoadgenConfig(
                port=http.bound_port, tenants=SERVE_TENANTS, batches=4, rows_per_batch=250,
                dims=3, fits=SERVE_FITS, epsilons=(0.5, 1.0), seed=321, total_epsilon=1000.0,
            )
        )
    finally:
        http.request_stop()
        thread.join(30.0)
    assert not thread.is_alive()
    return report, verify_report(report, data_dir, strict=True)


class TestServe:
    def test_no_failures(self, serve):
        report, _ = serve
        assert report["totals"]["failures"] == 0, report["tenants"]
        assert report["totals"]["fits_ok"] == SERVE_TENANTS * SERVE_FITS

    def test_every_fit_verified_offline(self, serve):
        report, verification = serve
        assert verification["ok"], verification["violations"]
        assert verification["digests_checked"] == report["totals"]["fits_ok"]

    def test_fit_rate(self, serve):
        assert serve[0]["totals"]["fits_per_second"] >= 10.0, serve[0]["totals"]

    def test_ingest_rate(self, serve):
        assert serve[0]["totals"]["ingest_rows_per_second"] >= 1000.0, serve[0]["totals"]


# ----------------------------------------------------------------------
# federated: envelopes, validation and merge against the single box
# ----------------------------------------------------------------------
FEDERATED_ROWS = 60_000


@pytest.fixture(scope="module")
def federated() -> dict:
    """60k rows, d = 10, six budgets, central noise, serial in process."""
    rng = np.random.default_rng(17)
    X = rng.normal(size=(FEDERATED_ROWS, 10))
    X /= np.maximum(1.0, np.linalg.norm(X, axis=1, keepdims=True) * 1.01)
    y = np.clip(X @ rng.normal(size=10), -1.0, 1.0)

    def spec(parties):
        return FederationSpec(
            task="linear", dim=10, epsilons=(0.1, 0.2, 0.4, 0.8, 1.6, 3.2), seed=29,
            parties=parties,
        )

    started = time.perf_counter()
    single = centralized_fit(spec(1), X, y).digest
    single_seconds = time.perf_counter() - started
    rows = {}
    for parties in (2, 4, 8):
        started = time.perf_counter()
        blobs = run_parties(spec(parties), X, y)
        party_seconds = time.perf_counter() - started
        coordinator = FederatedCoordinator(spec(parties))
        for blob in blobs:
            coordinator.submit(blob)
        balanced = coordinator.fit(tree="balanced").digest
        seconds = time.perf_counter() - started
        rows[parties] = {
            "digests": (balanced, coordinator.fit(tree="sequential").digest),
            "rows_per_second": FEDERATED_ROWS / party_seconds,
            "vs_single_box": seconds / single_seconds,
        }
    return {"single": single, "parties": rows}


class TestFederated:
    def test_digest_equals_single_box(self, federated):
        for parties, row in federated["parties"].items():
            assert row["digests"] == (federated["single"],) * 2, parties

    def test_overhead_vs_single_box(self, federated):
        for parties, row in federated["parties"].items():
            assert row["vs_single_box"] < 25.0, (parties, row)

    def test_party_ingest_rate(self, federated):
        for parties, row in federated["parties"].items():
            assert row["rows_per_second"] > 5_000.0, (parties, row)
