"""The golden-oracle registry and its conformance matrix.

Two layers, by cost:

* tier-1 smoke — the store is well-formed, one group (the figure-5
  pipeline) is bitwise-equivalent across a representative slice of
  execution configs, and the figure-6 logistic panel (the DPME/FP Newton
  fits) is equivalent on both runtimes;
* tier-3 matrix — every group across every config, strict against the
  committed digests (opt-in: ``--run-tier3`` / ``REPRO_TIER3=1``).
"""

import json

import pytest

from repro.exceptions import ExperimentError
from repro.session import ExecutionPolicy
from repro.verify.golden import (
    GOLDEN_CONFIGS,
    GOLDEN_GROUPS,
    case_policy,
    default_store_path,
    digest_sweep_result,
    environment_fingerprint,
    environment_matches,
    load_store,
    run_golden_case,
    save_store,
    verify_matrix,
)

#: A representative slice of the execution matrix for the default suite:
#: both runtimes, all three executors, both tilings appear at least once.
SMOKE_CONFIGS = [
    "batched-serial-tiledefault",
    "percell-serial-tile1",
    "batched-thread-tile1",
    "batched-process-tiledefault",
]

_FINGERPRINT_KEYS = (
    "python", "numpy", "machine", "system", "blas", "blas_version", "blas_core",
    "blas_threads",
)


class TestStoreWellFormed:
    pytestmark = pytest.mark.tier1

    def test_committed_store_parses(self):
        store = load_store()
        assert store["format"] == 1
        assert set(store["environment"]) == set(_FINGERPRINT_KEYS)
        assert store["environment"]["blas_threads"] == 1

    def test_every_group_is_pinned(self):
        store = load_store()
        assert set(store["groups"]) == {g.group_id for g in GOLDEN_GROUPS}

    def test_digests_are_sha256_hex(self):
        store = load_store()
        for entry in store["groups"].values():
            digest = entry["digest"]
            assert len(digest) == 64
            int(digest, 16)  # raises on non-hex

    @pytest.mark.parametrize("group", GOLDEN_GROUPS, ids=lambda g: g.group_id)
    def test_embedded_policies_load(self, group):
        """Each stored policy is the reproduction recipe ``save_store``
        documents: it loads as a policy and names the group's canonical
        cell."""
        stored = load_store()["groups"][group.group_id]["policy"]
        policy = ExecutionPolicy.from_dict(stored)
        assert policy == case_policy(group, GOLDEN_CONFIGS[0])

    def test_matrix_dimensions(self):
        """The acceptance floor: >= 2 figures x {percell, batched} x
        {serial, thread, process} x {tile 1, default}, and both tasks."""
        figures = {g.figure for g in GOLDEN_GROUPS}
        assert len(GOLDEN_GROUPS) == 3
        assert len(GOLDEN_GROUPS) * len(GOLDEN_CONFIGS) == 36
        assert len(figures) >= 2
        assert {g.task for g in GOLDEN_GROUPS} == {"linear", "logistic"}
        assert {c.runtime for c in GOLDEN_CONFIGS} == {"batched", "percell"}
        assert {c.executor for c in GOLDEN_CONFIGS} == {"serial", "thread", "process"}
        assert {c.tile_size for c in GOLDEN_CONFIGS} == {None, 1}

    def test_malformed_store_rejected(self, tmp_path):
        bad = tmp_path / "store.json"
        bad.write_text(json.dumps({"format": 1}))
        with pytest.raises(ExperimentError, match="missing key"):
            load_store(bad)
        bad.write_text("not json")
        with pytest.raises(ExperimentError, match="not valid JSON"):
            load_store(bad)
        with pytest.raises(ExperimentError, match="not found"):
            load_store(tmp_path / "absent.json")

    def test_selection_errors(self):
        with pytest.raises(ExperimentError, match="unknown golden groups"):
            verify_matrix(group_ids=["nope"])
        with pytest.raises(ExperimentError, match="unknown golden configs"):
            verify_matrix(config_ids=["nope"])


class TestDigesting:
    pytestmark = pytest.mark.tier1

    def test_digest_is_deterministic(self):
        group = GOLDEN_GROUPS[0]
        config = GOLDEN_CONFIGS[0]
        result = run_golden_case(group, config)
        assert digest_sweep_result(result) == digest_sweep_result(result)

    def test_telemetry_never_changes_digests(self):
        """The observability invariant: tracing a case is digest-neutral."""
        config = GOLDEN_CONFIGS[0]
        group = next(g for g in GOLDEN_GROUPS if g.group_id == "figure5-linear-sv2")
        off = digest_sweep_result(run_golden_case(group, config))
        trace = digest_sweep_result(run_golden_case(group, config, telemetry="trace"))
        summary = digest_sweep_result(
            run_golden_case(group, config, telemetry="summary")
        )
        assert off == trace == summary


class TestSmokeMatrix:
    pytestmark = pytest.mark.tier1

    def test_stream_v2_group_equivalent_across_paths(self):
        report = verify_matrix(
            group_ids=["figure5-linear-sv2"], config_ids=SMOKE_CONFIGS
        )
        assert report.all_equivalent
        outcome = report.outcomes[0]
        assert set(outcome.digests) == set(SMOKE_CONFIGS)
        if report.environment_match:
            assert outcome.matches_stored
        assert report.passed

    def test_logistic_panel_equivalent_across_runtimes(self):
        configs = ["batched-serial-tiledefault", "percell-serial-tile1"]
        report = verify_matrix(group_ids=["figure6-logistic-sv2"], config_ids=configs)
        assert report.all_equivalent
        if report.environment_match:
            assert report.outcomes[0].matches_stored
        assert report.passed

    def test_regen_roundtrip(self, tmp_path):
        store_path = tmp_path / "golden.json"
        regen = verify_matrix(
            group_ids=["figure5-linear-sv2"],
            config_ids=["batched-serial-tiledefault", "percell-serial-tiledefault"],
            store_path=store_path,
            regen=True,
        )
        assert regen.passed
        check = verify_matrix(
            group_ids=["figure5-linear-sv2"],
            config_ids=["batched-serial-tiledefault"],
            store_path=store_path,
        )
        assert check.environment_match
        assert check.all_match_stored
        assert check.passed

    def test_partial_regen_preserves_other_pins(self, tmp_path):
        store_path = tmp_path / "golden.json"
        save_store({"figure6-linear-sv2": "0" * 64}, store_path)
        verify_matrix(
            group_ids=["figure5-linear-sv2"],
            config_ids=["batched-serial-tiledefault"],
            store_path=store_path,
            regen=True,
        )
        store = load_store(store_path)
        assert set(store["groups"]) == {"figure5-linear-sv2", "figure6-linear-sv2"}
        assert store["groups"]["figure6-linear-sv2"]["digest"] == "0" * 64

    def test_partial_regen_refused_across_environments(self, tmp_path):
        """Re-pinning a subset must not relabel another machine's pins
        with this environment's fingerprint."""
        store_path = tmp_path / "golden.json"
        store_path.write_text(
            json.dumps(
                {
                    "format": 1,
                    "environment": {
                        "python": "0.0", "numpy": "0",
                        "machine": "elsewhere", "system": "elsewhere",
                    },
                    "groups": {"figure6-linear-sv2": {"digest": "0" * 64}},
                }
            )
        )
        with pytest.raises(ExperimentError, match="partial re-pin"):
            verify_matrix(
                group_ids=["figure5-linear-sv2"],
                config_ids=["batched-serial-tiledefault"],
                store_path=store_path,
                regen=True,
            )

    def test_stale_pin_detected(self, tmp_path):
        store_path = tmp_path / "golden.json"
        save_store({"figure5-linear-sv2": "f" * 64}, store_path)
        report = verify_matrix(
            group_ids=["figure5-linear-sv2"],
            config_ids=["batched-serial-tiledefault"],
            store_path=store_path,
        )
        assert report.all_equivalent
        assert not report.all_match_stored
        assert not report.passed  # environment matches, pin disagrees

    def test_environment_fingerprint_shape(self):
        fingerprint = environment_fingerprint()
        assert set(fingerprint) == set(_FINGERPRINT_KEYS)
        # The runtime's pin, not the host's BLAS thread count.
        assert fingerprint["blas_threads"] == 1
        assert environment_matches(
            {"environment": fingerprint}
        )


@pytest.mark.tier3
class TestFullMatrix:
    """The complete conformance table (CI's tier-3 job)."""

    @pytest.fixture(scope="class")
    def report(self):
        return verify_matrix()

    def test_every_group_equivalent_across_all_configs(self, report):
        for outcome in report.outcomes:
            assert outcome.equivalent, (
                f"{outcome.group_id}: execution paths diverged: {outcome.digests}"
            )
            assert len(outcome.digests) == len(GOLDEN_CONFIGS)

    def test_matches_committed_digests(self, report):
        """Strict in a pinned environment; elsewhere the mismatch list is
        surfaced for the re-pin workflow."""
        if not report.environment_match:
            pytest.skip(
                "environment fingerprint differs from the committed pins; "
                "within-run equivalence already verified — re-pin with "
                "`python -m repro verify --tier 3 --regen-golden`"
            )
        for outcome in report.outcomes:
            assert outcome.matches_stored, (
                f"{outcome.group_id}: digest {outcome.digest} != stored "
                f"{outcome.stored} — a refactor changed pinned numerics"
            )

    def test_store_is_current(self, report):
        assert default_store_path().exists()
        assert report.passed or not report.environment_match

    def test_full_matrix_is_telemetry_neutral(self, report):
        """All 60 cases re-run at telemetry='trace' produce the very same
        group digests as the untraced run."""
        traced = verify_matrix(telemetry="trace")
        assert traced.all_equivalent
        for untraced_outcome, traced_outcome in zip(
            report.outcomes, traced.outcomes
        ):
            assert untraced_outcome.group_id == traced_outcome.group_id
            assert untraced_outcome.digests == traced_outcome.digests
