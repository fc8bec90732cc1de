"""Fault-tolerance overhead: self-healing must be ~free when nothing fails.

The hardened process executor (:mod:`repro.faults`) keeps extra accounting
on the fault-free path: a completed-prefix cursor for rebuild-and-resume,
the retry-policy bound checks, and the per-map work-file lifecycle.  The
cost contract:

* the hardened default (``max_retries=2``, no timeout) must stay within
  **2%** of the legacy fail-fast configuration (``max_retries=0``, which
  restores the pre-hardening control flow exactly) on a figure-6 shaped
  process-executor workload;
* the per-item submit path (any ``tile_timeout``) additionally pays a
  checksummed pickle envelope per tile — measured and recorded as-is,
  not gated: timeouts are a chaos/diagnostics knob, not the default.

Following ``bench_obs_overhead``, every measurement runs in a fresh
subprocess and reports a score digest, so the run doubles as a
digest-neutrality check: all configurations must produce bitwise
identical scores.  Configurations are measured interleaved round-robin
for ``FAULT_OVERHEAD_REPEATS`` rounds, each keeping its best time, so
slow-drift noise hits all of them equally.

Results merge into ``BENCH_harness.json`` under
``fault_tolerance_overhead``.
"""

import json
import os
import subprocess
import sys

import pytest
from conftest import save_and_print

RECORDS = int(os.environ.get("FAULT_OVERHEAD_RECORDS", "3000"))
REPEATS = int(os.environ.get("FAULT_OVERHEAD_REPEATS", "5"))
#: Gate: hardened-default seconds must stay within this multiple of the
#: legacy fail-fast configuration.  2% per the robustness contract;
#: override for noisy shared boxes.
GUARD = float(os.environ.get("FAULT_OVERHEAD_GUARD", "1.02"))

#: mode -> policy overrides applied on top of the common process policy.
MODES = {
    "legacy": {"max_retries": 0},  # pre-hardening control flow
    "hardened": {},  # the shipped default (max_retries=2)
    "submit": {"tile_timeout": 120.0},  # per-item futures + sealed envelopes
}

#: Runs the figure-6 sweep once through a process-executor session (after
#: one untimed warm-up pass) with the mode's policy overrides; prints
#: {seconds, score_digest}.
_CHILD = r"""
import hashlib, json, struct, sys, time
records, overrides = int(sys.argv[1]), json.loads(sys.argv[2])
from repro.data.census import load_us
from repro.experiments.config import ScalePreset
from repro.session import ExecutionPolicy, Session

dataset = load_us(records)
preset = ScalePreset(name="fault-overhead", max_records=None, folds=3, repetitions=2)
base = dict(executor="process", tile_size=1, seed=17)
with Session(ExecutionPolicy(**base)) as warmup:
    warmup.figure("figure6", dataset, "linear", preset=preset)
with Session(ExecutionPolicy(**base, **overrides)) as session:
    started = time.perf_counter()
    result = session.figure("figure6", dataset, "linear", preset=preset)
    seconds = time.perf_counter() - started
digest = hashlib.sha256()
for name, points in result.series.items():
    digest.update(name.encode())
    for point in points:
        digest.update(struct.pack("<dd", point.mean_score, point.std_score))
print(json.dumps({"seconds": seconds, "score_digest": digest.hexdigest()}))
"""


def _run_mode_once(mode: str) -> dict:
    result = subprocess.run(
        [sys.executable, "-c", _CHILD, str(RECORDS), json.dumps(MODES[mode])],
        capture_output=True,
        text=True,
        check=False,
    )
    assert result.returncode == 0, f"{mode} child failed:\n{result.stderr}"
    return json.loads(result.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def measurements(results_dir) -> dict[str, dict]:
    rows: dict[str, dict] = {}
    for _ in range(REPEATS):
        for mode in MODES:  # interleaved: noise drift hits all modes alike
            row = _run_mode_once(mode)
            kept = rows.get(mode)
            if kept is not None:
                assert row["score_digest"] == kept["score_digest"]
                row["seconds"] = min(row["seconds"], kept["seconds"])
            rows[mode] = row
    legacy = rows["legacy"]["seconds"]
    lines = [
        f"fault-tolerance overhead (figure-6 sweep, process executor, "
        f"{RECORDS:,} records, 3 folds x 2 reps, best of {REPEATS} "
        f"interleaved rounds)"
    ]
    for mode, row in rows.items():
        overhead = row["seconds"] / legacy - 1.0
        lines.append(
            f"  {mode:>9}: {row['seconds']:.3f}s ({overhead:+.1%} vs legacy)"
        )
    save_and_print(results_dir, "fault_overhead", "\n".join(lines))
    payload = {"records": RECORDS, "repeats": REPEATS, "modes": rows}
    (results_dir / "fault_overhead.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    return rows


def test_scores_identical_across_configurations(measurements):
    """Self-healing is recovery machinery: one digest across all modes."""
    digests = {row["score_digest"] for row in measurements.values()}
    assert len(digests) == 1, measurements


def test_hardened_default_within_two_percent_of_legacy(measurements):
    """The committed contract: hardening costs nothing when nothing fails."""
    legacy = measurements["legacy"]["seconds"]
    hardened = measurements["hardened"]["seconds"]
    assert hardened <= GUARD * legacy, (
        f"hardened default {hardened:.3f}s exceeded {GUARD:.0%} of "
        f"legacy fail-fast {legacy:.3f}s"
    )
