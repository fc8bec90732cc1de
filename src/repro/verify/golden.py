"""The golden-oracle registry: digest-pinned figure pipelines.

The runtime's headline guarantee — every execution path produces bitwise
identical scores — was asserted pairwise and ad hoc inside individual
tests.  This module turns it into one declarative conformance table:

* a :class:`GoldenGroup` names a figure pipeline at a fixed seed —
  everything that *defines* the result;
* a :class:`GoldenConfig` names an execution path — ``{runtime} x
  {executor} x {tile_size}`` — everything that must *not* change it;
* :func:`verify_matrix` runs groups across configs, asserts every config
  in a group produces one digest (the equivalence half of the guarantee,
  valid on any machine), and compares that digest against the committed
  store (the regression half, pinning today's numerics against tomorrow's
  refactor).

Digest semantics: SHA-256 over the structural fields and the exact IEEE-754
bytes of every score statistic of a
:class:`~repro.experiments.figures.SweepResult` — *excluding* fit timings,
which are measurements of the host, not of the algorithm.

Stored digests are a function of the BLAS/LAPACK build executing the
solves, so the store records an environment fingerprint alongside them,
including the BLAS build and the one thread the runtime pins it to.
On a fingerprint mismatch the within-group equivalence checks retain full
force while stored-digest comparisons are reported but expected to be
re-pinned (``--regen-golden``) per environment — that is exactly the
"non-blocking then blocking" CI rollout the workflow encodes.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import struct
import sys
import tempfile
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from ..data.census import load_us
from ..exceptions import ExperimentError
from ..experiments.config import ScalePreset
from ..experiments.figures import SweepResult
from ..obs import active_recorder
from ..runtime.blas import PINNED_BLAS_THREADS, blas_core, blas_info
from ..session import ExecutionPolicy, Session

__all__ = [
    "GoldenConfig",
    "GoldenGroup",
    "GroupOutcome",
    "MatrixReport",
    "GOLDEN_CONFIGS",
    "GOLDEN_GROUPS",
    "case_policy",
    "default_store_path",
    "environment_fingerprint",
    "environment_matches",
    "digest_sweep_result",
    "run_golden_case",
    "load_store",
    "save_store",
    "verify_matrix",
]

#: Golden workload scale: small enough that the full 36-case matrix runs in
#: CI minutes, large enough that every runtime path (subsampling, folds,
#: stacked solves, histogram baselines) executes meaningfully.
GOLDEN_PRESET = ScalePreset(name="golden", max_records=600, folds=3, repetitions=2)

#: Records loaded for the golden dataset — deliberately above the preset
#: cap so the per-repetition subsampling path is exercised.
_GOLDEN_RECORDS = 760

#: Figure-5 sampling rates for the golden pipeline (the full Table-2 rate
#: grid would multiply the matrix cost tenfold without covering new code).
_GOLDEN_RATES = (0.5, 1.0)

STORE_FORMAT = 1


@dataclass(frozen=True)
class GoldenConfig:
    """One execution path: must never change any group's digest."""

    runtime: str
    executor: str
    tile_size: int | None

    @property
    def config_id(self) -> str:
        tile = "default" if self.tile_size is None else str(self.tile_size)
        return f"{self.runtime}-{self.executor}-tile{tile}"


@dataclass(frozen=True)
class GoldenGroup:
    """One figure pipeline at a pinned seed: one digest."""

    group_id: str
    figure: str
    task: str
    seed: int


#: The conformance matrix's execution-path axis:
#: {percell, batched} x {serial, thread, process} x {tile_size 1, default}.
GOLDEN_CONFIGS: tuple[GoldenConfig, ...] = tuple(
    GoldenConfig(runtime=runtime, executor=executor, tile_size=tile)
    for runtime in ("batched", "percell")
    for executor in ("serial", "thread", "process")
    for tile in (None, 1)
)

#: The pipeline axis: figures 5 and 6 on the linear task, plus figure 6's
#: logistic panel, whose DPME/FP fits run the Newton solver on the
#: synthetic data.  The ``-sv2`` suffix is part of each group's store key.
GOLDEN_GROUPS: tuple[GoldenGroup, ...] = tuple(
    GoldenGroup(
        group_id=f"{figure}-{task}-sv2", figure=figure, task=task, seed=seed
    )
    for figure, task, seed in (
        ("figure5", "linear", 105),
        ("figure6", "linear", 106),
        ("figure6", "logistic", 106),
    )
)


@lru_cache(maxsize=1)
def _golden_dataset():
    return load_us(_GOLDEN_RECORDS)


def case_policy(
    group: GoldenGroup, config: GoldenConfig, telemetry: str = "off"
) -> ExecutionPolicy:
    """The exact :class:`ExecutionPolicy` of one matrix cell.

    What *defines* the digest comes from the group (figure, task,
    seed); what must *not* change it comes from the config (runtime,
    executor, tiling).  ``telemetry`` is an observation setting, never a
    digest input — the conformance tests run the same cell at ``"off"``
    and ``"trace"`` and assert one digest.  The canonical
    batched-serial-eager cell's policy (telemetry off) is what
    :func:`save_store` embeds next to each pinned digest.
    """
    return ExecutionPolicy(
        runtime=config.runtime,
        executor=config.executor,
        tile_size=config.tile_size,
        seed=group.seed,
        telemetry=telemetry,
    )


def run_golden_case(
    group: GoldenGroup, config: GoldenConfig, telemetry: str = "off"
) -> SweepResult:
    """Execute one (group, config) cell of the conformance matrix.

    Runs through a one-case :class:`~repro.session.Session` over
    :func:`case_policy` — the same resolver/dispatch path the CLI uses —
    so a pinned digest is reproducible from its embedded policy alone.
    When ``telemetry`` is on and an outer recorder is active (``repro
    verify --trace``), the case session's recorded activity is merged
    into it so one trace file covers the whole matrix run.
    """
    dataset = _golden_dataset()
    values = _GOLDEN_RATES if group.figure == "figure5" else None
    with Session(case_policy(group, config, telemetry=telemetry)) as session:
        result = session.figure(
            group.figure,
            dataset,
            group.task,
            preset=GOLDEN_PRESET,
            values=values,
        )
    outer = active_recorder()
    if outer.recording and session.recorder.recording and outer is not session.recorder:
        outer.merge(session.recorder.export())
    return result


def digest_sweep_result(result: SweepResult) -> str:
    """SHA-256 of a sweep result's structure and exact score bytes.

    Covers figure/panel/task/parameter, the sweep values, the algorithm
    series order, and each point's ``(mean_score, std_score, cells,
    n_train)``.  Fit timings are excluded: they measure the host.
    """
    digest = hashlib.sha256()
    header = f"{result.figure}|{result.panel}|{result.task}|{result.parameter}"
    digest.update(header.encode())
    values = np.asarray(result.values, dtype=float)
    digest.update(struct.pack(f"<{values.size}d", *values))
    for name, points in result.series.items():
        digest.update(name.encode())
        for point in points:
            digest.update(
                struct.pack(
                    "<ddqq",
                    point.mean_score,
                    point.std_score,
                    point.cells,
                    point.n_train,
                )
            )
    return digest.hexdigest()


# ----------------------------------------------------------------------
# The committed store
# ----------------------------------------------------------------------
def default_store_path() -> Path:
    """The committed digest store, shipped inside the package."""
    return Path(__file__).resolve().parent / "golden_digests.json"


def environment_fingerprint() -> dict[str, str | int]:
    """What the stored digests are a function of, beyond the code.

    The BLAS build is named as ``numpy.show_config`` reports it, plus the
    kernel family OpenBLAS dispatched to (its GEMM rounds differently per
    kernel); its thread count is the runtime's pin
    (:mod:`repro.runtime.blas`), not the host's.
    """
    blas = blas_info()
    return {
        "python": f"{sys.version_info.major}.{sys.version_info.minor}",
        "numpy": np.__version__,
        "machine": platform.machine(),
        "system": platform.system(),
        "blas": blas["name"],
        "blas_version": blas["version"],
        "blas_core": blas_core(),
        "blas_threads": PINNED_BLAS_THREADS,
    }


def _store_checksum(store: dict) -> str:
    """SHA-256 over the canonical JSON of the store's payload keys.

    Canonicalization (sorted keys, fixed separators) makes the checksum a
    function of the *content*, not of the pretty-printing, so a store
    survives being reformatted but not a flipped digest character.
    """
    payload = {key: store[key] for key in sorted(store) if key != "sha256"}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def load_store(path: Path | str | None = None) -> dict:
    """Parse the digest store; raises ``ExperimentError`` on malformation.

    Stores written since the checksummed format embed a ``sha256``
    self-checksum which is verified here — a corrupted pin must fail
    loudly, never silently gate (or un-gate) the conformance matrix.
    Stores without one (pinned by older code) are accepted.
    """
    store_path = Path(path) if path is not None else default_store_path()
    try:
        store = json.loads(store_path.read_text())
    except FileNotFoundError:
        raise ExperimentError(
            f"golden digest store not found at {store_path}; "
            f"run `python -m repro verify --tier 3 --regen-golden` to create it"
        ) from None
    except json.JSONDecodeError as error:
        raise ExperimentError(f"golden digest store is not valid JSON: {error}") from None
    for key in ("format", "environment", "groups"):
        if key not in store:
            raise ExperimentError(f"golden digest store is missing key {key!r}")
    declared = store.get("sha256")
    if declared is not None and declared != _store_checksum(store):
        raise ExperimentError(
            f"golden digest store at {store_path} failed its self-checksum; "
            f"the file is corrupt — restore it from version control or "
            f"re-pin with `python -m repro verify --tier 3 --regen-golden`"
        )
    return store


def save_store(
    digests: dict[str, str], path: Path | str | None = None
) -> dict:
    """Write a fresh store (digest per group) with this environment's
    fingerprint; returns the written structure.

    Each registered group's entry also embeds the exact
    :class:`ExecutionPolicy` of its canonical (batched-serial-eager)
    cell, so a pinned digest names the precise execution that reproduces
    it — ``Session(ExecutionPolicy.from_dict(entry["policy"]))`` on the
    golden preset.
    """
    store_path = Path(path) if path is not None else default_store_path()
    registered = {group.group_id: group for group in GOLDEN_GROUPS}
    canonical = GOLDEN_CONFIGS[0]

    def entry(group_id: str, digest: str) -> dict:
        if group_id not in registered:
            return {"digest": digest}
        policy = case_policy(registered[group_id], canonical)
        return {"digest": digest, "policy": policy.to_dict()}

    store = {
        "format": STORE_FORMAT,
        "environment": environment_fingerprint(),
        "groups": {
            group_id: entry(group_id, digest)
            for group_id, digest in sorted(digests.items())
        },
    }
    store["sha256"] = _store_checksum(store)
    # Atomic publish: the store is the gate for every conformance run, so a
    # crash mid-pin must leave the previous pins intact, never a torn file.
    text = json.dumps(store, indent=2) + "\n"
    fd, tmp_name = tempfile.mkstemp(dir=store_path.parent, suffix=".tmp.json")
    tmp = Path(tmp_name)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        tmp.replace(store_path)
    finally:
        tmp.unlink(missing_ok=True)
    return store


def environment_matches(store: dict) -> bool:
    """Whether the store was pinned under this numerical environment."""
    return store.get("environment") == environment_fingerprint()


# ----------------------------------------------------------------------
# Matrix verification
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GroupOutcome:
    """One group's verdict across every executed config."""

    group_id: str
    digests: dict[str, str]  # config_id -> digest
    stored: str | None

    @property
    def equivalent(self) -> bool:
        """All execution paths produced one digest (machine-independent)."""
        return len(set(self.digests.values())) == 1

    @property
    def digest(self) -> str:
        """The group digest (only meaningful when ``equivalent``)."""
        return next(iter(self.digests.values()))

    @property
    def matches_stored(self) -> bool | None:
        """Digest == committed pin; ``None`` when no pin exists."""
        if self.stored is None:
            return None
        return self.equivalent and self.digest == self.stored


@dataclass(frozen=True)
class MatrixReport:
    """Verdict of a full (or filtered) conformance-matrix run."""

    outcomes: tuple[GroupOutcome, ...]
    environment_match: bool
    regenerated: bool

    @property
    def all_equivalent(self) -> bool:
        return all(outcome.equivalent for outcome in self.outcomes)

    @property
    def all_match_stored(self) -> bool:
        return all(outcome.matches_stored for outcome in self.outcomes)

    @property
    def passed(self) -> bool:
        """Equivalence always gates; stored pins gate in a pinned
        environment (elsewhere they are reported, not enforced)."""
        if not self.all_equivalent:
            return False
        if self.regenerated:
            return True
        return self.all_match_stored if self.environment_match else True


def _select(items, ids, id_of, kind: str):
    if ids is None:
        return tuple(items)
    by_id = {id_of(item): item for item in items}
    missing = [i for i in ids if i not in by_id]
    if missing:
        raise ExperimentError(f"unknown {kind} {missing}; available: {sorted(by_id)}")
    return tuple(by_id[i] for i in ids)


def verify_matrix(
    group_ids: list[str] | None = None,
    config_ids: list[str] | None = None,
    store_path: Path | str | None = None,
    regen: bool = False,
    progress=None,
    telemetry: str = "off",
) -> MatrixReport:
    """Run the conformance matrix and compare against the committed store.

    Parameters
    ----------
    group_ids / config_ids:
        Optional filters (CI shards and the fast tier-1 smoke use these).
    store_path:
        Digest store location (default: the committed package store).
    regen:
        Re-pin: write the measured group digests (and this environment's
        fingerprint) to the store instead of comparing.  Regeneration
        still requires within-group equivalence.
    progress:
        Optional callable ``(message: str) -> None`` for live reporting.
    telemetry:
        Telemetry level for every case session (``"off"``, ``"summary"``,
        ``"trace"``).  Observation only: digests are computed from scores
        and must be identical at every level — running the matrix at
        ``"trace"`` against a store pinned at ``"off"`` *is* the
        telemetry-neutrality check.
    """
    groups = _select(GOLDEN_GROUPS, group_ids, lambda g: g.group_id, "golden groups")
    configs = _select(GOLDEN_CONFIGS, config_ids, lambda c: c.config_id, "golden configs")
    if not groups or not configs:
        raise ExperimentError("golden matrix selection is empty")
    stored_groups: dict[str, dict] = {}
    environment_match = False
    if not regen:
        store = load_store(store_path)
        stored_groups = store["groups"]
        environment_match = environment_matches(store)
    outcomes = []
    for group in groups:
        digests: dict[str, str] = {}
        for config in configs:
            if progress is not None:
                progress(f"{group.group_id} / {config.config_id}")
            digests[config.config_id] = digest_sweep_result(
                run_golden_case(group, config, telemetry=telemetry)
            )
        stored = stored_groups.get(group.group_id, {}).get("digest")
        outcomes.append(
            GroupOutcome(group_id=group.group_id, digests=digests, stored=stored)
        )
    report = MatrixReport(
        outcomes=tuple(outcomes),
        environment_match=environment_match,
        regenerated=regen,
    )
    if regen:
        if not report.all_equivalent:
            raise ExperimentError(
                "refusing to pin golden digests: execution paths disagree "
                f"({[o.group_id for o in report.outcomes if not o.equivalent]})"
            )
        # Partial regens keep the untouched groups' existing pins — but
        # only pins made under *this* environment: save_store() stamps the
        # whole store with the current fingerprint, and relabeling another
        # machine's digests would turn informational mismatches into
        # enforced stale pins.
        existing: dict[str, str] = {}
        try:
            previous = load_store(store_path)
        except ExperimentError:
            previous = None
        if previous is not None:
            kept = set(previous["groups"]) - {o.group_id for o in outcomes}
            if kept and not environment_matches(previous):
                raise ExperimentError(
                    "refusing a partial re-pin: the existing store was "
                    f"generated under {previous['environment']} and groups "
                    f"{sorted(kept)} would be relabeled with this "
                    "environment's fingerprint without being re-measured; "
                    "regenerate all groups (omit --golden-groups) instead"
                )
            existing = {
                gid: entry["digest"] for gid, entry in previous["groups"].items()
            }
        existing.update({o.group_id: o.digest for o in outcomes})
        save_store(existing, store_path)
    return report
