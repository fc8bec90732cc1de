"""The protocol workloads: ``figure6`` and ``fm-full-sweep``.

Both drive public :class:`repro.session.Session` entry points over the
synthetic US table, with a process executor of two workers:

``figure6``
    ``Session.figure("figure6")`` for the linear panel (FM, DPME, FP,
    NoPrivacy) and the logistic panel (+ Truncated): 6 Table-2 budgets x
    5 folds x :data:`FIGURE6_REPS` repetition on :data:`FIGURE6_RECORDS`
    records.  The histogram baselines dominate.
``fm-full-sweep``
    ``Session.budget_sweep`` for FM alone over the full 370k-row table at
    the paper's protocol: 50 repetitions x 5 folds x 6 budgets with
    ``tile_size=1``.  Moment aggregation and the executor dominate.

A workload seed picks one of up to :data:`VARIANTS` input variants
(table seed and protocol seed); :mod:`reference` lists the variants and stores their
scores, which is what the correctness gate compares against.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource

from repro.data import census
from repro.experiments.config import PRIVACY_BUDGETS, ScalePreset
from repro.obs import use_recorder
from repro.session import ExecutionPolicy, Session

import layers
import reference

WORKLOADS = ("figure6", "fm-full-sweep")
VARIANTS = 8
FIGURE6_RECORDS = 20_000
FIGURE6_REPS = 1
FULL_REPS = 50
FOLDS = 5

#: Relative tolerance of the score gate: loose enough for a different
#: BLAS reduction order (~1e-14), tight enough for any real change.
RTOL = 1e-9


def candidate_inputs(candidate: int) -> dict:
    """Table and protocol seed of one input candidate."""
    return {"variant": candidate, "table_seed": 20120827 + candidate, "protocol_seed": candidate}


def inputs(workload: str, seed: int) -> dict:
    """The input variant a workload seed selects."""
    chosen = reference.variants(workload)
    return candidate_inputs(chosen[int(seed) % len(chosen)])


def policy(workload: str, protocol_seed: int, telemetry: str = "off") -> ExecutionPolicy:
    extra = {"tile_size": 1} if workload == "fm-full-sweep" else {}
    return ExecutionPolicy(
        executor="process",
        max_workers=2,
        telemetry=telemetry,
        seed=protocol_seed,
        **extra,
    )


def load(workload: str, given: dict):
    """The workload's table (looked up on the module so wrappers apply)."""
    records = FIGURE6_RECORDS if workload == "figure6" else None
    return census.load_us(records, rng=given["table_seed"])


def _preset(workload: str) -> ScalePreset:
    if workload == "figure6":
        return ScalePreset(
            name="bench-figure6", max_records=FIGURE6_RECORDS,
            folds=FOLDS, repetitions=FIGURE6_REPS,
        )
    return ScalePreset(
        name="bench-full", max_records=None, folds=FOLDS, repetitions=FULL_REPS
    )


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_unit(workload: str, dataset, given: dict, telemetry: str = "off") -> dict:
    """One timed protocol call in a fresh session (pool start and close included).

    Returns the wall and CPU seconds, the scores keyed
    ``task/algorithm/epsilon`` as ``[mean, std]``, the cell count per key,
    and the session (whose recorder holds the trace when telemetry is on).
    """
    protocol_seed = given["protocol_seed"]
    session = Session(policy(workload, protocol_seed, telemetry))
    preset = _preset(workload)
    scores: dict[str, list[float]] = {}
    cells: dict[str, int] = {}
    cpu0 = _cpu_seconds()
    with use_recorder(session.recorder), session.recorder.span(layers.ROOT) as root:
        try:
            if workload == "figure6":
                for task in ("linear", "logistic"):
                    result = session.figure(
                        "figure6", dataset, task=task, preset=preset, seed=protocol_seed
                    )
                    for algorithm, points in result.series.items():
                        for epsilon, point in zip(result.values, points):
                            key = f"{task}/{algorithm}/{epsilon!r}"
                            scores[key] = [point.mean_score, point.std_score]
                            cells[key] = point.cells
            else:
                sweep = session.budget_sweep(
                    dataset, "linear", epsilons=PRIVACY_BUDGETS,
                    preset=preset, seed=protocol_seed,
                )
                for epsilon, point in sweep.items():
                    key = f"linear/FM/{epsilon!r}"
                    scores[key] = [point.mean_score, point.std_score]
                    cells[key] = point.cells
        finally:
            session.close()
    return {
        "wall_s": root.seconds,
        "cpu_s": _cpu_seconds() - cpu0,
        "scores": scores,
        "cells": cells,
        "root_id": root.span_id,
        "session": session,
    }


def digest(scores: dict) -> str:
    """Exact fingerprint of every score (bitwise; not the gate)."""
    blob = json.dumps(
        {key: [float(v).hex() for v in pair] for key, pair in sorted(scores.items())}
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def _close(a: float, b: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= RTOL * max(abs(a), abs(b)) + 1e-300


def gate(scores: dict, cells: dict, expected: dict) -> tuple[int, int, list[str]]:
    """Compare every (task, algorithm, epsilon) mean and std to the reference.

    Returns ``(attempted_cells, failed_cells, failing_keys)``; a key that
    is missing, non-finite or off by more than :data:`RTOL` fails all of
    its cells (a reference key the run lacks fails one).
    """
    attempted = failed = 0
    bad = []
    for key in sorted(set(scores) | set(expected)):
        n = cells.get(key, 1)
        attempted += n
        got, want = scores.get(key), expected.get(key)
        if got is None or want is None or not all(map(_close, got, want)):
            failed += n
            bad.append(key)
    return attempted, failed, bad
