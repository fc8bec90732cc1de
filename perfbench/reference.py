"""Input variants and reference scores for the protocol workloads.

``reference.json`` holds, per workload, the list of input candidates a
seed can select and, for each, the mean and std score of every (task,
algorithm, epsilon) point plus the exact score digest of the run that
produced them.

``figure6`` candidates are screened, because the histogram baselines'
cost depends on the input: on some inputs one DPME/FP logistic fit on
synthetic data needs up to the solver's 100 Newton iterations (10-40x a
normal fit), and the synthetic sets differ in size.  Left alone, the run
time would depend on the seed rather than on the code.  Of the first
:data:`CANDIDATES` inputs, those whose fits all converge within
:data:`NEWTON_CAP` iterations, both with the default BLAS threads and
with ``OPENBLAS_NUM_THREADS=1`` (the reduction order can push a fit into
the cap), are eligible, and up to :data:`~protocol.VARIANTS` eligible ones
whose CPU seconds lie closest to the eligible median are kept.

Regenerate (about ten minutes on two cores) after a change that is meant
to move scores; name workloads to redo only those::

    python3 perfbench/reference.py [figure6] [fm-full-sweep]
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
PATH = HERE / "reference.json"
CANDIDATES = 32
NEWTON_CAP = 10
ITERATIONS = "bench.newton_iterations"


def _table() -> dict:
    return json.loads(PATH.read_text())


def variants(workload: str) -> list[int]:
    """The input candidates a workload seed chooses from."""
    return _table()["variants"][workload]


def expected(workload: str, candidate: int) -> dict:
    """``{"digest": ..., "scores": {key: [mean, std]}}`` for one candidate."""
    return _table()[workload][str(candidate)]


def _gauge_newton_iterations() -> None:
    """Report every ``NewtonSolver`` run's iterations as a max-merged gauge."""
    from repro.obs import active_recorder
    from repro.regression.solvers import NewtonSolver

    minimize = NewtonSolver.minimize

    def counted(self, *args, **kwargs):
        result = minimize(self, *args, **kwargs)
        active_recorder().gauge(ITERATIONS, result.iterations)
        return result

    NewtonSolver.minimize = counted


def _single_thread_iterations(workload: str, candidate: int) -> float:
    """Max Newton iterations of one candidate under one BLAS thread."""
    done = subprocess.run(
        [sys.executable, __file__, "--iterations", workload, str(candidate)],
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
        stdout=subprocess.PIPE, check=True, text=True,
    )
    return float(done.stdout.split()[-1])


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    import protocol

    _gauge_newton_iterations()
    if sys.argv[1:2] == ["--iterations"]:
        workload, candidate = sys.argv[2], int(sys.argv[3])
        given = protocol.candidate_inputs(candidate)
        unit = protocol.run_unit(workload, protocol.load(workload, given), given, "summary")
        print(unit["session"].recorder.summary()["gauges"].get(ITERATIONS, {}).get("max", 0))
        return 0
    redo = sys.argv[1:] or list(protocol.WORKLOADS)
    table = _table() if PATH.exists() else {}
    table.pop("slowest_fit_s", None)
    for workload in redo:
        screened = workload == "figure6"
        runs = {}
        for candidate in range(CANDIDATES if screened else protocol.VARIANTS):
            given = protocol.candidate_inputs(candidate)
            dataset = protocol.load(workload, given)
            unit = protocol.run_unit(
                workload, dataset, given, "summary" if screened else "off"
            )
            gauges = unit["session"].recorder.summary()["gauges"]
            runs[candidate] = {
                "digest": protocol.digest(unit["scores"]),
                "scores": unit["scores"],
                "newton_iterations_max": gauges.get(ITERATIONS, {}).get("max", 0),
                "cpu_s": unit["cpu_s"],
            }
            print(f"{workload} candidate {candidate}: {unit['wall_s']:.1f} s, "
                  f"{unit['cpu_s']:.1f} cpu s, max Newton iterations "
                  f"{runs[candidate]['newton_iterations_max']}",
                  flush=True)
        eligible = [c for c in runs if runs[c]["newton_iterations_max"] <= NEWTON_CAP]
        if screened:
            for c in eligible:
                runs[c]["newton_iterations_max_1thread"] = _single_thread_iterations(workload, c)
            eligible = [
                c for c in eligible if runs[c]["newton_iterations_max_1thread"] <= NEWTON_CAP
            ]
        middle = statistics.median(runs[c]["cpu_s"] for c in eligible)
        chosen = sorted(eligible, key=lambda c: (abs(runs[c]["cpu_s"] - middle), c))
        chosen = sorted(chosen[: protocol.VARIANTS])
        table.setdefault("variants", {})[workload] = chosen
        table[workload] = {str(c): runs[c] for c in chosen}
    PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
