"""Streaming census ingestion + one-pass multi-epsilon Functional Mechanism.

The engine exploits that FM's degree-2 database-level coefficients are
additive moment statistics:

1. stream the census dataset through a ``MomentAccumulator`` chunk by chunk
   (as if rows arrived from a scan or a message queue),
2. verify that a one-shot accumulation of the same rows yields
   bit-identical statistics (chunk boundaries never change results),
3. refit the mechanism at the whole Table-2 budget range with a single
   ``EpsilonSweepEngine`` call — one data pass total,
4. attach repeated-draw error bars from the same finalized statistics.

Run:  python examples/streaming_census.py
"""

import numpy as np

from repro.core.objectives import LinearRegressionObjective
from repro.data import load_us
from repro.engine import EpsilonSweepEngine, MomentAccumulator
from repro.regression.metrics import mean_squared_error

CHUNK_ROWS = 5_000
EPSILONS = (0.1, 0.2, 0.4, 0.8, 1.6, 3.2)


def main() -> None:
    dataset = load_us(40_000)
    task = dataset.regression_task("linear", dims=14)
    print("=== streaming engine quickstart ===")
    print(f"records: {task.n}, features: {task.dim}")

    # ------------------------------------------------------------------
    # 1. One streaming pass over the data, chunk by chunk.
    # ------------------------------------------------------------------
    accumulator = MomentAccumulator(task.dim)
    for start in range(0, task.n, CHUNK_ROWS):
        accumulator.update(
            task.X[start : start + CHUNK_ROWS], task.y[start : start + CHUNK_ROWS]
        )
    print(f"streamed {accumulator.n_rows} rows in {CHUNK_ROWS}-row chunks")

    # ------------------------------------------------------------------
    # 2. Chunking is bit-identical — canonical blocks fix every matmul.
    # ------------------------------------------------------------------
    one_shot = MomentAccumulator(task.dim).update(task.X, task.y)
    identical = np.array_equal(one_shot.snapshot().S2, accumulator.snapshot().S2)
    print(f"one-shot statistics bit-identical to streamed: {identical}")

    # ------------------------------------------------------------------
    # 3. Every Table-2 budget from the same finalized statistics.
    # ------------------------------------------------------------------
    objective = LinearRegressionObjective(task.dim)
    engine = EpsilonSweepEngine(objective, accumulator)
    sweep = engine.sweep(EPSILONS, rng=0)
    exact = engine.form.minimize()
    print("\n--- one pass, six budgets (linear task, in-sample MSE) ---")
    print(f"{'epsilon':>8} {'MSE':>10} {'|w - w_exact|':>15}")
    for point in sweep.points:
        mse = mean_squared_error(task.y, task.X @ point.omega)
        distance = float(np.linalg.norm(point.omega - exact))
        print(f"{point.epsilon:>8g} {mse:>10.5f} {distance:>15.4f}")
    print(f"{'(exact)':>8} {mean_squared_error(task.y, task.X @ exact):>10.5f}")

    # ------------------------------------------------------------------
    # 4. Error bars: repeated draws, still zero extra data passes.
    # ------------------------------------------------------------------
    variance = engine.variance_estimate(EPSILONS, repeats=25, rng=1)
    print("\n--- coefficient std over 25 draws (first three epsilons) ---")
    for i, epsilon in enumerate(EPSILONS[:3]):
        print(f"eps={epsilon:g}: mean coef std = {float(variance.std[i].mean()):.4f}")
    print("\nnote: the statistics pass ran once; every refit above reused it.")


if __name__ == "__main__":
    main()
