"""Engine throughput: accumulation rows/sec and one-pass sweep amortization.

Two questions the engine's design makes measurable:

* does chunked (streaming) accumulation keep up with monolithic one-shot
  accumulation (the canonical-block re-buffering must not dominate), and
* how much does one data pass plus a solve per budget save over one data
  pass per budget.

Emits the standard pytest-benchmark JSON (``--benchmark-json``) like the
figure benches, attaches ``rows_per_sec`` via ``extra_info``, and persists a
text table under ``benchmarks/results/``.  Correctness is not re-asserted
here — the engine test suite owns that.
"""

import time

import numpy as np
import pytest
from conftest import save_and_print

from repro.engine import MomentAccumulator

N_ROWS = 400_000
DIM = 14
CHUNK = 8_192


def _synthetic(n: int = N_ROWS, d: int = DIM, seed: int = 0):
    """Normalized rows with targets clipped to [-1, 1]."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0 / np.sqrt(d), 1.0 / np.sqrt(d), size=(n, d))
    return X, np.clip(X @ rng.uniform(-1, 1, d), -1.0, 1.0)


@pytest.fixture(scope="module")
def data():
    return _synthetic()


@pytest.mark.parametrize("mode", ["monolithic", "chunked"])
def test_accumulation_throughput(benchmark, results_dir, data, mode):
    X, y = data

    def run():
        acc = MomentAccumulator(DIM, validate=False)
        if mode == "monolithic":
            acc.update(X, y)
        else:
            for start in range(0, X.shape[0], CHUNK):
                acc.update(X[start : start + CHUNK], y[start : start + CHUNK])
        return acc

    acc = benchmark.pedantic(run, rounds=3, iterations=1)
    assert acc.n_rows == X.shape[0]
    if not benchmark.enabled:
        return  # --benchmark-disable smoke mode: correctness ran, no stats
    seconds = benchmark.stats.stats.median
    rows_per_sec = X.shape[0] / seconds
    benchmark.extra_info["rows_per_sec"] = rows_per_sec
    save_and_print(
        results_dir,
        f"engine_throughput_{mode}",
        f"{mode} accumulation: {rows_per_sec:,.0f} rows/sec "
        f"({X.shape[0]:,} rows, d={DIM}, median of 3)",
    )


def test_sweep_amortization(results_dir, data):
    """One pass + n_eps solves vs n_eps full passes (wall-clock evidence)."""
    from repro.core.objectives import LinearRegressionObjective
    from repro.engine import EpsilonSweepEngine

    X, y = data
    epsilons = (0.1, 0.2, 0.4, 0.8, 1.6, 3.2)
    objective = LinearRegressionObjective(DIM)

    started = time.perf_counter()
    accumulator = MomentAccumulator(DIM, validate=False).update(X, y)
    engine = EpsilonSweepEngine(objective, accumulator)
    sweep = engine.sweep(epsilons, rng=0)
    engine_seconds = time.perf_counter() - started

    started = time.perf_counter()
    for _ in epsilons:
        objective.aggregate_quadratic(X, y)  # the per-epsilon loop's data pass
    loop_pass_seconds = time.perf_counter() - started

    solve_seconds = sum(p.solve_seconds for p in sweep.points)
    save_and_print(
        results_dir,
        "engine_sweep_amortization",
        f"{len(epsilons)}-epsilon sweep: engine total {engine_seconds:.3f}s "
        f"(solves {solve_seconds:.4f}s) vs {len(epsilons)} loop data passes "
        f"{loop_pass_seconds:.3f}s",
    )
    assert engine_seconds < loop_pass_seconds
