"""One map for a whole sweep: ``run_plan_groups`` must equal every other path.

A sweep's groups (one algorithm panel per budget point) run as a single
cost-ordered executor map.  Whatever the executor, the tiling or the
order units are dispatched in, each plan's scores must equal the
per-point :func:`run_plan_group` run and the per-cell oracle bit for bit.
"""

import sys
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.config import PRIVACY_BUDGETS, ScalePreset
from repro.experiments.harness import _plan_algorithms
from repro.runtime import (
    PooledProcessExecutor,
    PooledThreadExecutor,
    PreparedDataCache,
    SerialExecutor,
    run_plan,
    run_plan_group,
    run_plan_groups,
)
from repro.runtime import runner

PANELS = {
    "linear": ("FM", "DPME", "FP", "NoPrivacy"),
    "logistic": ("NoPrivacy", "Truncated", "DPME"),
}

#: ``n_tiles == 1`` (one repetition) and ``tile_size=1`` over 3 repetitions.
PROTOCOLS = {
    "one-tile": ScalePreset(name="one-tile", max_records=600, folds=3, repetitions=1),
    "three-tiles": ScalePreset(name="three-tiles", max_records=600, folds=3, repetitions=3),
}


def _sweep_groups(us, task, preset, algorithms=None, budgets=PRIVACY_BUDGETS):
    cache = PreparedDataCache()
    return [
        _plan_algorithms(
            algorithms or PANELS[task], us, task, dims=5, epsilon=epsilon,
            preset=preset, seed=5 + 1000 * i, tile_size=1,
            prepared_cache=cache,
        )
        for i, epsilon in enumerate(budgets)
    ]


def _fingerprint(results):
    """Everything of a ``PlanResult`` but the (wall-clock) fit times."""
    return [
        [(r.plan.algorithm, r.mode, r.scores, r.n_train) for r in group]
        for group in results
    ]


@pytest.fixture(scope="module")
def reference(us):
    """Per-point ``run_plan_group`` runs and the per-cell oracle, serially."""
    out = {}
    for task in PANELS:
        for name, preset in PROTOCOLS.items():
            groups = _sweep_groups(us, task, preset)
            per_point = [run_plan_group(group) for group in groups]
            percell = [[run_plan(plan, mode="percell") for plan in group] for group in groups]
            out[task, name] = (per_point, percell)
    return out


def _executors():
    return {
        "serial": lambda: SerialExecutor(),
        "thread": lambda: PooledThreadExecutor(max_workers=2),
        "pooled-process": lambda: PooledProcessExecutor(max_workers=2),
    }


class TestSweepAsOneMap:
    @pytest.mark.parametrize("executor_name", sorted(_executors()))
    @pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
    @pytest.mark.parametrize("task", sorted(PANELS))
    def test_equals_per_point_groups_and_percell_oracle(
        self, us, reference, task, protocol, executor_name
    ):
        groups = _sweep_groups(us, task, PROTOCOLS[protocol])
        with _executors()[executor_name]() as executor:
            swept = run_plan_groups(groups, mode="batched", executor=executor)
        per_point, percell = reference[task, protocol]
        assert _fingerprint(swept) == _fingerprint(per_point)
        for got, want in zip(swept, percell):
            for a, b in zip(got, want):
                assert a.scores == b.scores, a.plan.algorithm
                assert a.n_train == b.n_train

    def test_percell_mode_runs_every_plan_per_fold(self, us, reference):
        groups = _sweep_groups(us, "linear", PROTOCOLS["three-tiles"])
        swept = run_plan_groups(groups, mode="percell")
        _, percell = reference["linear", "three-tiles"]
        assert _fingerprint(swept) == _fingerprint(percell)

    def test_units_and_dispatch_order(self, us):
        groups = _sweep_groups(us, "linear", PROTOCOLS["three-tiles"], budgets=(0.4, 0.1))
        seen = []

        class Recording(SerialExecutor):
            def map(self, work, items):
                seen.extend(items)
                return super().map(work, items)

        run_plan_groups(groups, executor=Recording())
        # per (group, tile): one batched unit (FM + NoPrivacy), 3 folds of
        # DPME and of FP; batched units lead, then the smaller budget's folds
        batched = [u for u in seen if u.plan is None]
        folds = [u for u in seen if u.plan is not None]
        assert len(batched) == 2 * 3 and len(folds) == 2 * 3 * 2 * 3
        assert seen[: len(batched)] == batched
        assert [u.group for u in folds] == [1] * 18 + [0] * 18

    def test_threads_sharing_the_tile_memo_agree(self, us, reference):
        """More threads than cores and a tiny switch interval race on the
        work's one-entry tile memo; a lost or crossed update would show."""
        groups = _sweep_groups(us, "linear", PROTOCOLS["three-tiles"])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with PooledThreadExecutor(max_workers=8) as executor:
                swept = run_plan_groups(groups, executor=executor)
        finally:
            sys.setswitchinterval(interval)
        per_point, _ = reference["linear", "three-tiles"]
        assert _fingerprint(swept) == _fingerprint(per_point)

    def test_empty_inputs(self):
        assert run_plan_groups([]) == []
        assert run_plan_groups([[]]) == [[]]


class TestDispatchOrderIndependence:
    @pytest.fixture(scope="class")
    def small(self, us):
        preset = ScalePreset(name="small", max_records=400, folds=2, repetitions=2)
        groups = _sweep_groups(
            us, "linear", preset, algorithms=("FM", "DPME", "NoPrivacy"),
            budgets=(0.8, 0.2),
        )
        return groups, _fingerprint(run_plan_groups(groups))

    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_any_dispatch_permutation_gives_identical_results(self, small, data):
        groups, expected = small
        n_units = 2 * 2 * (1 + 2)  # groups x tiles x (batched + DPME folds)
        rank = data.draw(st.permutations(range(n_units)))
        units = []

        def permuted(groups_, unit):
            if unit not in units:
                units.append(unit)
            return rank[units.index(unit)]

        with mock.patch.object(runner, "_dispatch_rank", permuted):
            got = run_plan_groups(groups)
        assert len(units) == n_units
        assert _fingerprint(got) == expected
