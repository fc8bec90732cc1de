"""A serve fit is one stacked release, byte-identical to the per-epsilon loop.

The reference kept here is the historical fit path: one
``EpsilonSweepEngine(objective, form).sweep([eps], rng=...)`` per epsilon,
each on its own keyed substream.  The service now draws the same rows
from the same substreams and releases them in a single stacked sweep.
"""

import numpy as np
import pytest

from repro.engine.accumulator import MomentAccumulator
from repro.engine.sweep import EpsilonSweepEngine
from repro.experiments.harness import objective_for
from repro.privacy.rng import derive_substream
from repro.serve.app import _SERVE_STREAM_TAG, ServeApp, _partition_site, _release
from repro.serve.loadgen import synthetic_batch
from repro.session import ExecutionPolicy, Session

SIX_BUDGETS = (0.01, 0.05, 0.2, 0.8, 1.6, 3.2)
#: Request seeds whose ``eps=0.01`` draw trims an eigenvalue on these rows:
#: 146 at d=1, 5 at d=13 (see ``test_the_smallest_budget_trims``).
SEEDS = (5, 146)


def _rows(task, dims, n=200, batch=0):
    X, y = synthetic_batch(5, 0, batch, n, dims)
    if task == "logistic":
        y = (y > 0).astype(float)
    return X, y


def _form(task, dims):
    X, y = _rows(task, dims)
    snapshot = MomentAccumulator(dim=dims).update(X, y).snapshot()
    return snapshot.quadratic_form(objective_for(task, dims))


def _reference(task, dims, form, epsilons, seed, site=None):
    """The per-epsilon loop: one single-epsilon sweep per keyed substream."""
    objective = objective_for(task, dims)
    prefix = [_SERVE_STREAM_TAG] if site is None else [_SERVE_STREAM_TAG, site]
    points = [
        EpsilonSweepEngine(objective, form).sweep(
            [eps],
            rng=derive_substream(seed, [*prefix, i]),
        ).points[0]
        for i, eps in enumerate(epsilons)
    ]
    return np.stack([p.omega for p in points]), [p.post.trimmed for p in points]


class TestStackedEqualsPerEpsilonLoop:
    @pytest.mark.parametrize("task", ["linear", "logistic"])
    @pytest.mark.parametrize("dims", [1, 13])
    @pytest.mark.parametrize("epsilons", [(0.01,), (0.8,), SIX_BUDGETS])
    @pytest.mark.parametrize("partition", [None, "east"])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_bytes_equal(self, task, dims, epsilons, partition, seed):
        form = _form(task, dims)
        site = _partition_site(partition)
        stacked = _release(task, dims, form, epsilons, seed, partition_site=site)
        expected, _ = _reference(task, dims, form, epsilons, seed, site)
        assert stacked.shape == (len(epsilons), dims)
        assert stacked.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("task", ["linear", "logistic"])
    @pytest.mark.parametrize("dims, seed", [(1, 146), (13, 5)])
    def test_the_smallest_budget_trims(self, task, dims, seed):
        # Guards the coverage of the trimmed-cell branch above.
        _, trimmed = _reference(task, dims, _form(task, dims), (0.01,), seed)
        assert trimmed[0] > 0

    def test_partitions_draw_their_own_noise(self):
        form = _form("linear", 13)
        plain = _release("linear", 13, form, SIX_BUDGETS, 17)
        east = _release(
            "linear", 13, form, SIX_BUDGETS, 17, partition_site=_partition_site("east")
        )
        assert not np.array_equal(plain, east)


def _policy(**overrides):
    base = dict(
        scale="smoke", telemetry="summary", executor="serial",
        failure_mode="fallback",
    )
    base.update(overrides)
    return ExecutionPolicy(**base)


def _served(tmp_path, name, task, dims, epsilons, partition=None, **policy):
    """Ingest two batches, fit once; returns (omegas, reference omegas)."""
    with ServeApp(tmp_path / name, Session(_policy(**policy))) as app:
        app.create_tenant({"tenant": "acme", "total_epsilon": 100.0})
        acc = MomentAccumulator(dim=dims)
        for batch in range(2):
            X, y = _rows(task, dims, n=150, batch=batch)
            body = {"tenant": "acme", "task": task, "dims": dims,
                    "x": X.tolist(), "y": y.tolist()}
            if partition is not None:
                body["partition"] = partition
            app.ingest(body)
            acc.update(X, y)
        body = {"tenant": "acme", "task": task, "dims": dims,
                "epsilons": list(epsilons), "seed": 23}
        if partition is not None:
            body["partition"] = partition
        served = np.asarray(app.fit(body)["omegas"], dtype=float)
    form = acc.snapshot().quadratic_form(objective_for(task, dims))
    expected, _ = _reference(
        task, dims, form, epsilons, 23, _partition_site(partition)
    )
    return served, expected


#: Execution policies and fault plans a served fit must be neutral to.  A
#: fit never reaches a pool worker, so none of them changes a byte.
_EXECUTORS = {
    "serial": dict(executor="serial"),
    "thread": dict(executor="thread", max_workers=2),
    "process": dict(executor="process", max_workers=2),
    "process-crash-plan": dict(
        executor="process", max_workers=2, faults="seed=5;worker.crash=1.0x1"
    ),
}


class TestServedFitEqualsPerEpsilonLoop:
    @pytest.mark.parametrize("executor", sorted(_EXECUTORS))
    @pytest.mark.parametrize("partition", [None, "east"])
    def test_every_executor(self, tmp_path, executor, partition):
        served, expected = _served(
            tmp_path, executor, "linear", 13, SIX_BUDGETS, partition,
            **_EXECUTORS[executor],
        )
        assert served.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("task", ["linear", "logistic"])
    @pytest.mark.parametrize("epsilons", [(0.01,), SIX_BUDGETS])
    def test_tasks_and_budget_counts(self, tmp_path, task, epsilons):
        served, expected = _served(tmp_path, "app", task, 1, epsilons)
        assert served.tobytes() == expected.tobytes()


class TestOneSweepPerFit:
    @pytest.mark.parametrize("k", [1, 6])
    def test_traced_fit_opens_one_batched_sweep(self, tmp_path, k):
        """A k-budget fit is one stacked sweep (no per-epsilon fallback),
        and it counts exactly the draws the per-epsilon loop made."""
        dims = 13
        session = Session(_policy(telemetry="trace"))
        with ServeApp(tmp_path / "data", session) as app:
            app.create_tenant({"tenant": "acme", "total_epsilon": 100.0})
            X, y = _rows("linear", dims)
            app.ingest({"tenant": "acme", "task": "linear", "dims": dims,
                        "x": X.tolist(), "y": y.tolist()})
            app.fit({"tenant": "acme", "task": "linear", "dims": dims,
                     "epsilons": list(SIX_BUDGETS[:k]), "seed": 3})
        sweeps = [
            e for e in session.recorder.events() if e["name"] == "engine.sweep_batched"
        ]
        assert len(sweeps) == 1
        assert sweeps[0]["attrs"]["points"] == k
        counters = session.recorder.summary()["counters"]
        assert counters["engine.laplace_draws"] == k * (1 + dims + dims * dims)
