"""The fault-plan grammar and the injector's decision determinism."""

import pytest

from repro.exceptions import ExperimentError
from repro.faults import (
    DEFAULT_HANG_SECONDS,
    EXECUTOR_SITES,
    FAULT_SITES,
    NULL_INJECTOR,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    active_injector,
    make_injector,
    use_injector,
)
from repro.session import ExecutionPolicy


class TestGrammar:
    def test_parse_full_plan(self):
        plan = FaultPlan.parse("seed=7;hang=0.2;worker.crash=0.5x2;payload.corrupt=1.0")
        assert plan.seed == 7
        assert plan.hang_seconds == 0.2
        assert plan.spec_for("worker.crash") == FaultSpec("worker.crash", 0.5, 2)
        assert plan.spec_for("payload.corrupt") == FaultSpec("payload.corrupt", 1.0, 1)
        assert plan.spec_for("tile.hang") is None

    def test_comma_and_semicolon_separators_equivalent(self):
        assert FaultPlan.parse("seed=3,io.transient=0.5") == FaultPlan.parse(
            "seed=3;io.transient=0.5"
        )

    def test_entry_order_is_normalized(self):
        a = FaultPlan.parse("payload.corrupt=1.0;worker.crash=0.5")
        b = FaultPlan.parse("worker.crash=0.5;payload.corrupt=1.0")
        assert a == b

    def test_describe_round_trips(self):
        for text in (
            "seed=0",
            "seed=7;hang=0.2;worker.crash=0.5x2;payload.corrupt=1.0",
            "seed=-3;tile.hang=1.0;budget.crash=0.25x4",
        ):
            plan = FaultPlan.parse(text)
            assert FaultPlan.parse(plan.describe()) == plan

    def test_none_and_empty_are_inert(self):
        assert not FaultPlan.parse(None)
        assert not FaultPlan.parse("")
        assert not FaultPlan.parse("seed=5")
        assert FaultPlan.parse("seed=5;worker.crash=0.5")

    @pytest.mark.parametrize(
        "text",
        [
            "worker.crash",  # no value
            "worker.crash=",  # empty value
            "bogus.site=1.0",  # unregistered site
            "worker.crash=2.0",  # probability out of range
            "worker.crash=0.5x0",  # zero trigger cap
            "hang=0",  # non-positive hang
            "worker.crash=0.5;worker.crash=1.0",  # duplicate site
        ],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(ValueError):
            FaultPlan.parse(text)

    def test_default_hang_omitted_from_describe(self):
        plan = FaultPlan.parse("seed=1;worker.crash=1.0")
        assert plan.hang_seconds == DEFAULT_HANG_SECONDS
        assert "hang=" not in plan.describe()

    def test_executor_sites_are_registered(self):
        assert set(EXECUTOR_SITES) <= set(FAULT_SITES)

    def test_site_words_are_pinned(self):
        # The words key every site's decision substream: renumbering one
        # reshuffles every recorded fault pattern, and the retired word 4
        # must stay unused.
        assert FAULT_SITES == {
            "worker.crash": 1,
            "tile.hang": 2,
            "payload.corrupt": 3,
            "io.transient": 5,
            "budget.crash": 6,
        }

    def test_retired_site_refused_by_policy(self):
        with pytest.raises(ExperimentError, match="unknown fault site 'cache.corrupt'"):
            ExecutionPolicy(faults="cache.corrupt=1.0")


class TestRetryPolicy:
    def test_defaults(self):
        retry = RetryPolicy()
        assert retry.max_retries == 2
        assert retry.tile_timeout is None
        assert retry.failure_mode == "raise"

    def test_backoff_doubles_then_caps(self):
        retry = RetryPolicy(backoff_seconds=0.1, backoff_cap=0.35)
        assert retry.delay(0) == pytest.approx(0.1)
        assert retry.delay(1) == pytest.approx(0.2)
        assert retry.delay(2) == pytest.approx(0.35)
        assert retry.delay(10) == pytest.approx(0.35)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(max_retries=-1),
            dict(backoff_seconds=-0.1),
            dict(tile_timeout=0.0),
            dict(failure_mode="explode"),
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


class TestInjectorDeterminism:
    def test_decisions_replay_identically(self):
        plan = FaultPlan.parse("seed=11;worker.crash=0.5x3")
        a = FaultInjector(plan)
        b = FaultInjector(plan)
        pattern_a = [a.decide("worker.crash", i) for i in range(64)]
        pattern_b = [b.decide("worker.crash", i) for i in range(64)]
        assert pattern_a == pattern_b
        assert any(pattern_a) and not all(pattern_a)  # p=0.5 over 64 points

    def test_decision_is_independent_of_attempt_below_cap(self):
        """The draw is per (site, index); the cap alone silences retries —
        that is what makes ``x2`` mean "fail twice, then succeed"."""
        injector = FaultInjector(FaultPlan.parse("seed=1;worker.crash=1.0x2"))
        assert injector.decide("worker.crash", 5, attempt=0)
        assert injector.decide("worker.crash", 5, attempt=1)
        assert not injector.decide("worker.crash", 5, attempt=2)

    def test_seed_changes_pattern(self):
        pattern = lambda seed: [  # noqa: E731
            FaultInjector(FaultPlan.parse(f"seed={seed};worker.crash=0.5")).decide(
                "worker.crash", i
            )
            for i in range(64)
        ]
        assert pattern(1) != pattern(2)

    def test_sites_draw_from_distinct_streams(self):
        plan = FaultPlan.parse("seed=1;worker.crash=0.5;payload.corrupt=0.5")
        injector = FaultInjector(plan)
        crash = [injector.decide("worker.crash", i) for i in range(64)]
        corrupt = [injector.decide("payload.corrupt", i) for i in range(64)]
        assert crash != corrupt

    def test_consume_counts_triggers(self):
        injector = FaultInjector(FaultPlan.parse("seed=1;payload.corrupt=1.0x2"))
        assert injector.consume("payload.corrupt", 9)
        assert injector.consume("payload.corrupt", 9)
        assert not injector.consume("payload.corrupt", 9)  # cap reached
        assert injector.consume("payload.corrupt", 10)  # other points unaffected

    def test_corrupt_bytes_changes_exactly_one_byte_deterministically(self):
        injector = FaultInjector(FaultPlan.parse("seed=5;payload.corrupt=1.0"))
        data = bytes(range(256))
        once = injector.corrupt_bytes(data, "payload.corrupt", 3)
        again = injector.corrupt_bytes(data, "payload.corrupt", 3)
        assert once == again
        assert once != data
        assert sum(x != y for x, y in zip(once, data)) == 1

    def test_null_injector_never_fires(self):
        assert not NULL_INJECTOR.active
        assert not NULL_INJECTOR.decide("worker.crash", 0)
        assert not NULL_INJECTOR.consume("payload.corrupt", 0)


class TestActiveSlot:
    def test_use_injector_nests_and_restores(self):
        inner = make_injector("seed=1;worker.crash=1.0")
        assert active_injector() is NULL_INJECTOR
        with use_injector(inner):
            assert active_injector() is inner
            with use_injector(NULL_INJECTOR):
                assert active_injector() is NULL_INJECTOR
            assert active_injector() is inner
        assert active_injector() is NULL_INJECTOR

    def test_make_injector_inert_inputs_share_the_null_injector(self):
        assert make_injector(None) is NULL_INJECTOR
        assert make_injector("seed=9") is NULL_INJECTOR  # no specs
        assert make_injector("seed=9;io.transient=1.0") is not NULL_INJECTOR
