"""Crash-safe durable state: the golden store and the budget WAL.

The checksummed ``.acc`` accumulator container is covered where it is
written: serve snapshots (``tests/serve/test_state.py``) and the
federated wire (``tests/federated/test_wire_fuzz.py``)."""

import json
import os
import subprocess
import sys

import pytest

from repro.exceptions import (
    ExperimentError,
    InvalidBudgetError,
)
from repro.faults import make_injector, use_injector
from repro.obs import make_recorder, use_recorder
from repro.privacy.budget import PrivacyBudget
from repro.verify.golden import load_store, save_store


def _chaos(spec: str):
    return use_injector(make_injector(spec))


class TestGoldenStoreDurability:
    def test_save_embeds_verifiable_checksum(self, tmp_path):
        path = tmp_path / "store.json"
        store = save_store({"g": "0" * 64}, path)
        assert store["sha256"]
        assert load_store(path)["sha256"] == store["sha256"]

    def test_checksum_survives_reformatting(self, tmp_path):
        path = tmp_path / "store.json"
        save_store({"g": "0" * 64}, path)
        path.write_text(json.dumps(json.loads(path.read_text()), indent=8))
        load_store(path)  # content unchanged -> still verifies

    def test_tampered_digest_fails_the_checksum(self, tmp_path):
        path = tmp_path / "store.json"
        save_store({"g": "0" * 64}, path)
        store = json.loads(path.read_text())
        store["groups"]["g"]["digest"] = "1" * 64
        path.write_text(json.dumps(store))
        with pytest.raises(ExperimentError, match="self-checksum"):
            load_store(path)

    def test_legacy_store_without_checksum_accepted(self, tmp_path):
        path = tmp_path / "store.json"
        path.write_text(
            json.dumps({"format": 1, "environment": {}, "groups": {}})
        )
        load_store(path)


class TestBudgetJournal:
    def test_restore_replays_committed_spends(self, tmp_path):
        journal = tmp_path / "budget.journal"
        with PrivacyBudget(1.0, journal_path=journal) as budget:
            budget.spend(0.25, note="first")
            budget.spend(0.25, note="second")
        with PrivacyBudget.restore(journal) as restored:
            assert restored.spent == pytest.approx(0.5)
            assert [e.note for e in restored.ledger] == ["first", "second"]

    def test_uncommitted_intent_is_conservatively_spent(self, tmp_path):
        journal = tmp_path / "budget.journal"
        from repro.exceptions import InjectedFaultError

        with PrivacyBudget(1.0, journal_path=journal) as budget:
            budget.spend(0.2, note="ok")
            with _chaos("seed=1;budget.crash=1.0"):
                with pytest.raises(InjectedFaultError):
                    budget.spend(0.3, note="interrupted")
        with PrivacyBudget.restore(journal) as restored:
            # never under-recorded: the interrupted spend counts as spent
            assert restored.spent >= 0.5 - 1e-12
            assert any("recovered" in e.note for e in restored.ledger)
        # a second replay reaches the identical ledger (recovery commits
        # were journaled, making the repair idempotent)
        with PrivacyBudget.restore(journal) as again:
            assert again.spent == restored.spent
            assert [e.note for e in again.ledger] == [
                e.note for e in restored.ledger
            ]

    def test_torn_final_line_is_ignored(self, tmp_path):
        journal = tmp_path / "budget.journal"
        with PrivacyBudget(1.0, journal_path=journal) as budget:
            budget.spend(0.5)
        with open(journal, "a", encoding="utf-8") as handle:
            handle.write('{"op": "intent", "id"')  # crash mid-write
        with PrivacyBudget.restore(journal) as restored:
            assert restored.spent == pytest.approx(0.5)

    def test_torn_interior_line_is_fatal(self, tmp_path):
        journal = tmp_path / "budget.journal"
        with PrivacyBudget(1.0, journal_path=journal) as budget:
            budget.spend(0.5)
        lines = journal.read_text().splitlines()
        lines[0] = lines[0][:-4]
        journal.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidBudgetError):
            PrivacyBudget.restore(journal)

    def test_hard_process_crash_mid_spend_never_underrecords(self, tmp_path):
        """The real thing: a child process dies with ``os._exit`` between
        the intent and commit records; replay must count the interrupted
        spend."""
        journal = tmp_path / "budget.journal"
        script = f"""
import os
from repro.privacy.budget import PrivacyBudget

class _Exiter:
    def consume(self, site, index):
        if site == "budget.crash" and index >= 2:  # let the first spend commit
            os._exit(9)
        return False

import repro.faults.injector as injector_module
injector_module._ACTIVE = _Exiter()

budget = PrivacyBudget(1.0, journal_path={str(journal)!r})
budget.spend(0.25, note="survivor")
budget.spend(0.5, note="victim")  # dies between intent and commit
"""
        result = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
        )
        assert result.returncode == 9
        with PrivacyBudget.restore(journal) as restored:
            assert restored.spent >= 0.75 - 1e-12  # intended total
            notes = [e.note for e in restored.ledger]
        assert notes[0] == "survivor" and "victim" in notes[1]

    def test_journal_telemetry_counters(self, tmp_path):
        journal = tmp_path / "budget.journal"
        recorder = make_recorder("summary")
        with use_recorder(recorder):
            with PrivacyBudget(1.0, journal_path=journal) as budget:
                budget.spend(0.5)
            PrivacyBudget.restore(journal).close()
        counters = recorder.summary()["counters"]
        assert counters.get("budget.journal_records", 0) >= 3  # open+intent+commit
        assert counters.get("budget.journal_replays") == 1
