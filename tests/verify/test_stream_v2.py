"""Harness-level bitwise guarantees, end to end through a Session.

Every claim the runtime suite makes on small fixtures — batched == percell
bitwise, tiling-invariance, executor-invariance, grouped-panel equality —
must also hold on the census data through the public Session API, with
the noise streams :func:`repro.privacy.rng.derive_substream` derives, at
two seeds.
(The figure-pipeline layer is covered by the golden groups.)
"""

import pytest

from repro.data.census import load_us
from repro.experiments.config import SMOKE
from repro.session import ExecutionPolicy, Session

pytestmark = pytest.mark.tier1

EPSILONS = (0.1, 0.8, 3.2)


@pytest.fixture(scope="module")
def us():
    return load_us(6000)


@pytest.mark.parametrize("seed", [2, 9])
class TestRuntimeEquivalence:
    def test_batched_equals_percell(self, us, seed):
        batched, percell = (
            Session(ExecutionPolicy(runtime=runtime))
            .evaluate("FM", us, "linear", dims=5, epsilon=0.8, preset=SMOKE, seed=seed)
            for runtime in ("batched", "percell")
        )
        assert batched.mean_score == percell.mean_score
        assert batched.std_score == percell.std_score

    def test_tiling_is_invariant(self, us, seed):
        eager, tiled = (
            Session(ExecutionPolicy(tile_size=tile_size))
            .evaluate("FM", us, "linear", dims=5, epsilon=0.8, preset=SMOKE, seed=seed)
            for tile_size in (None, 1)
        )
        assert eager.mean_score == tiled.mean_score
        assert eager.std_score == tiled.std_score

    def test_executor_is_invariant(self, us, seed):
        scores = []
        for executor in ("serial", "thread"):
            policy = ExecutionPolicy(executor=executor, tile_size=1)
            with Session(policy) as session:
                scores.append(
                    session.evaluate(
                        "FM", us, "logistic", dims=5, epsilon=0.8,
                        preset=SMOKE, seed=seed,
                    ).mean_score
                )
        serial, threaded = scores
        assert serial == threaded

    def test_budget_sweep_batched_equals_percell(self, us, seed):
        batched, percell = (
            Session(ExecutionPolicy(runtime=runtime))
            .budget_sweep(
                us, "linear", dims=5, epsilons=EPSILONS, preset=SMOKE, seed=seed
            )
            for runtime in ("batched", "percell")
        )
        for epsilon in EPSILONS:
            assert batched[epsilon].mean_score == percell[epsilon].mean_score

    def test_budget_sweep_repair_batched_equals_percell(self, us, seed):
        """A non-spectral repair takes the batched generic kernel."""
        batched, percell = (
            Session(ExecutionPolicy(runtime=runtime))
            .budget_sweep(
                us, "linear", dims=5, epsilons=EPSILONS, preset=SMOKE, seed=seed,
                post_processing="regularize",
            )
            for runtime in ("batched", "percell")
        )
        for epsilon in EPSILONS:
            assert batched[epsilon].mean_score == percell[epsilon].mean_score
            assert batched[epsilon].std_score == percell[epsilon].std_score

    def test_grouped_panel_equals_individual_runs(self, us, seed):
        policy = ExecutionPolicy()
        grouped = Session(policy).evaluate_panel(
            ["FM", "NoPrivacy"], us, "linear", dims=5, epsilon=0.8,
            preset=SMOKE, seed=seed,
        )
        for name in ("FM", "NoPrivacy"):
            alone = Session(policy).evaluate(
                name, us, "linear", dims=5, epsilon=0.8, preset=SMOKE, seed=seed
            )
            assert grouped[name].mean_score == alone.mean_score
            assert grouped[name].std_score == alone.std_score
