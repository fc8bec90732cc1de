"""Multi-core scaling of the process-parallel batched-tile path.

ROADMAP open item: ``--tile-size N --executor process`` is asserted
bit-identical to the serial path, but PR 3's build box had one CPU, so its
speedup was unmeasured.  This bench measures it: a FULL-shaped FM workload
(all six Table-2 budgets per cell) is tiled into single-repetition tiles
and dispatched to a process pool (``PooledProcessExecutor``) at increasing
worker counts.

Following the ``bench_harness_memory`` pattern, every configuration runs
in a **fresh subprocess** — process pools, BLAS thread state and page
caches from one configuration must not contaminate the next — and reports
wall time plus a score digest, so cross-configuration bit-identity rides
along with the timing.

Assertions:

* digests agree across every configuration (always);
* with ``>= 4`` physical cores, the widest process configuration must beat
  serial by ``HARNESS_SCALING_FLOOR`` (default 1.5x — conservative for
  fork/reduce overhead; a real regression in the parallel path lands at
  ~1x).  On boxes with fewer cores the speedup assertion is skipped and
  the numbers are recorded as-is (the CI job supplies the multi-core
  measurement).

``run_plan`` pins BLAS to one thread, so the process pool is the only
parallelism; each child also reports the BLAS build and, sampled outside
the pin, the thread count the host would use unpinned.

Results merge into ``BENCH_harness.json`` under ``scaling_benchmarks``.

Pool reuse (the session API's executor lifecycle): a second measurement
compares N consecutive ``evaluate`` calls that each open and close their
own pool (a ``PooledProcessExecutor(max_workers=2)`` built for, passed to
and closed after every call) against one :class:`repro.session.Session`
holding a single persistent pool across all N calls.  Both modes must produce identical score
digests; the timings record what per-call pool spin-up costs.  Results
merge into ``BENCH_harness.json`` under ``session_pool_reuse`` with the
exact :class:`~repro.session.ExecutionPolicy` embedded.
"""

import json
import os
import subprocess
import sys

import pytest
from conftest import save_and_print

RECORDS = int(os.environ.get("HARNESS_SCALING_RECORDS", "200000"))
REPS = int(os.environ.get("HARNESS_SCALING_REPS", "16"))
FLOOR = float(os.environ.get("HARNESS_SCALING_FLOOR", "1.5"))

_CPUS = os.cpu_count() or 1
#: serial reference, then process pools at 1, 2 and all-core widths
#: (deduplicated when the box is narrow).
WORKER_CONFIGS = ("serial",) + tuple(
    str(w) for w in sorted({1, 2, _CPUS}) if w <= _CPUS
)

#: Runs one configuration; prints {seconds, cells, digest}.  tile_size=1
#: yields one tile per repetition — the unit the process executor ships.
_CHILD = r"""
import hashlib, json, struct, sys, time
records, reps, config = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3]
from repro.data.census import load_us
from repro.experiments.config import PRIVACY_BUDGETS, ScalePreset
from repro.runtime import plan_cells_tiled, run_plan
from repro.runtime.blas import blas_info, blas_threads
from repro.runtime.executor import PooledProcessExecutor, SerialExecutor

dataset = load_us(records)
preset = ScalePreset(name="scaling", max_records=None, folds=5, repetitions=reps)
plan = plan_cells_tiled(
    "FM", dataset, "linear", dims=14, epsilons=PRIVACY_BUDGETS,
    preset=preset, seed=11, tile_size=1,
)
started = time.perf_counter()
with (
    SerialExecutor() if config == "serial" else PooledProcessExecutor(int(config))
) as executor:
    outcome = run_plan(plan, mode="batched", executor=executor)
seconds = time.perf_counter() - started
digest = hashlib.sha256()
for epsilon in PRIVACY_BUDGETS:
    digest.update(struct.pack(f"<{len(outcome.scores[epsilon])}d", *outcome.scores[epsilon]))
print(json.dumps({
    "config": config,
    "seconds": seconds,
    "cells": plan.n_cells,
    "cells_per_sec": plan.n_cells / seconds,
    "score_digest": digest.hexdigest(),
    "blas": {**blas_info(), "host_threads": blas_threads()},
}))
"""


def _run_config(config: str) -> dict:
    result = subprocess.run(
        [sys.executable, "-c", _CHILD, str(RECORDS), str(REPS), config],
        capture_output=True,
        text=True,
        check=False,
    )
    assert result.returncode == 0, f"{config} child failed:\n{result.stderr}"
    return json.loads(result.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def measurements(results_dir) -> dict[str, dict]:
    rows = {config: _run_config(config) for config in WORKER_CONFIGS}
    lines = [
        f"process-executor scaling ({REPS} reps x 5 folds x 6 budgets = "
        f"{rows['serial']['cells']} cells, {RECORDS:,} records, "
        f"{_CPUS} cores visible)"
    ]
    serial_seconds = rows["serial"]["seconds"]
    for config, row in rows.items():
        label = "serial" if config == "serial" else f"process x{config}"
        speedup = serial_seconds / row["seconds"]
        lines.append(
            f"  {label:>12}: {row['seconds']:.2f}s "
            f"({row['cells_per_sec']:,.1f} cells/sec, {speedup:.2f}x vs serial)"
        )
    save_and_print(results_dir, "harness_scaling", "\n".join(lines))
    payload = {
        "records": RECORDS,
        "repetitions": REPS,
        "cores_visible": _CPUS,
        "blas": rows["serial"]["blas"],
        "configs": rows,
    }
    (results_dir / "harness_scaling.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    return rows


def test_scores_identical_across_worker_counts(measurements):
    """Parallel tile dispatch is a scheduling knob only: one digest."""
    digests = {row["score_digest"] for row in measurements.values()}
    assert len(digests) == 1, measurements


def test_single_worker_overhead_is_bounded(measurements):
    """A one-worker pool adds fork + reduction overhead but no parallelism;
    it must stay within 2x of serial or the dispatch path has regressed."""
    serial = measurements["serial"]["seconds"]
    one = measurements["1"]["seconds"]
    assert one <= 2.0 * serial, (serial, one)


def test_multicore_speedup(measurements):
    """The ROADMAP's missing number: wall-clock speedup at full width."""
    if _CPUS < 4:
        pytest.skip(
            f"only {_CPUS} core(s) visible — speedup is not measurable here; "
            f"the CI scaling job runs this on a multi-core runner"
        )
    serial = measurements["serial"]["seconds"]
    widest = measurements[str(_CPUS)]["seconds"]
    speedup = serial / widest
    assert speedup >= FLOOR, (
        f"process x{_CPUS} speedup {speedup:.2f}x fell below the "
        f"{FLOOR:.1f}x floor"
    )


# ----------------------------------------------------------------------
# Session pool reuse: per-call spin-up vs one persistent pool
# ----------------------------------------------------------------------
POOL_CALLS = int(os.environ.get("HARNESS_POOL_CALLS", "8"))
POOL_RECORDS = int(os.environ.get("HARNESS_POOL_RECORDS", "20000"))
#: Regression guard: the session-held pool must never cost more than this
#: multiple of opening and closing a pool per call.
POOL_REUSE_GUARD = float(os.environ.get("HARNESS_POOL_REUSE_GUARD", "2.0"))

#: Runs POOL_CALLS consecutive FM evaluations in one of two executor
#: lifecycles; prints {seconds, policy, score_digest}.
_POOL_CHILD = r"""
import hashlib, json, struct, sys, time
records, calls, mode = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3]
from repro.data.census import load_us
from repro.experiments.config import ScalePreset
from repro.runtime import PooledProcessExecutor
from repro.runtime.blas import blas_info, blas_threads
from repro.session import ExecutionPolicy, Session

dataset = load_us(records)
preset = ScalePreset(name="pool", max_records=None, folds=5, repetitions=4)
policy = ExecutionPolicy(executor="process", tile_size=1, max_workers=2)
digest = hashlib.sha256()
with Session(policy) as session:
    started = time.perf_counter()
    for call in range(calls):
        per_call = PooledProcessExecutor(max_workers=2) if mode == "per-call" else None
        result = session.evaluate(
            "FM", dataset, "linear", dims=14, epsilon=0.8,
            preset=preset, seed=100 + call, executor=per_call,
        )
        if per_call is not None:
            per_call.close()
        digest.update(struct.pack("<dd", result.mean_score, result.std_score))
    seconds = time.perf_counter() - started
print(json.dumps({
    "mode": mode,
    "seconds": seconds,
    "calls": calls,
    "seconds_per_call": seconds / calls,
    "policy": policy.to_dict(),
    "score_digest": digest.hexdigest(),
    "blas": {**blas_info(), "host_threads": blas_threads()},
}))
"""


def _run_pool_mode(mode: str) -> dict:
    result = subprocess.run(
        [sys.executable, "-c", _POOL_CHILD, str(POOL_RECORDS), str(POOL_CALLS), mode],
        capture_output=True,
        text=True,
        check=False,
    )
    assert result.returncode == 0, f"{mode} child failed:\n{result.stderr}"
    return json.loads(result.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def pool_measurements(results_dir) -> dict[str, dict]:
    rows = {mode: _run_pool_mode(mode) for mode in ("per-call", "session")}
    per_call = rows["per-call"]["seconds"]
    held = rows["session"]["seconds"]
    lines = [
        f"executor-pool lifecycle ({POOL_CALLS} evaluate calls x 4 reps x "
        f"5 folds, {POOL_RECORDS:,} records, process x2, tile_size=1)",
        f"      per-call pools: {per_call:.2f}s ({per_call / POOL_CALLS:.3f}s/call)",
        f"  session-held pool: {held:.2f}s ({held / POOL_CALLS:.3f}s/call, "
        f"{per_call / held:.2f}x vs per-call)",
    ]
    save_and_print(results_dir, "harness_pool_reuse", "\n".join(lines))
    (results_dir / "harness_pool_reuse.json").write_text(
        json.dumps({"records": POOL_RECORDS, "calls": POOL_CALLS,
                    "cores_visible": _CPUS, "blas": rows["session"]["blas"],
                    "modes": rows}, indent=2) + "\n"
    )
    return rows


def test_pool_reuse_scores_identical(pool_measurements):
    """Pool lifecycle is a scheduling knob only: one digest across modes."""
    digests = {row["score_digest"] for row in pool_measurements.values()}
    assert len(digests) == 1, pool_measurements


def test_pool_reuse_not_a_regression(pool_measurements):
    """The held pool must stay within the guard of the per-call pool
    lifecycle (it should win outright once per-call solve time stops
    dwarfing spin-up, but the guard only catches pathology, not missed
    wins)."""
    per_call = pool_measurements["per-call"]["seconds"]
    held = pool_measurements["session"]["seconds"]
    assert held <= POOL_REUSE_GUARD * per_call, (per_call, held)
