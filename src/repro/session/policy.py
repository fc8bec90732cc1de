"""`ExecutionPolicy` — one frozen, validated object for every execution knob.

Four PRs of engine/runtime/verify growth threaded the same execution kwargs
(``runtime=``, ``executor=``, ``tile_size=``, ``preset=``, ``seed=`` ...)
by hand through every harness entry point, every figure driver, the CLI
and the golden-oracle registry.
This module replaces the blob with a single dataclass:

* **frozen** — a policy is a value, safe to share across threads and to
  embed in digests, bench records and reports;
* **validated** — every field is checked at construction, so an invalid
  knob fails where it is written, not deep inside a plan;
* **layered** — :meth:`ExecutionPolicy.resolve` merges, in precedence
  order, explicit values > ``REPRO_*`` environment variables > a JSON
  policy file (``REPRO_POLICY_FILE``) > per-call base defaults > the
  class defaults;
* **serializable** — :meth:`to_dict` / :meth:`from_dict` /
  :meth:`to_json` / :meth:`from_json` round-trip exactly, so the golden
  store and ``BENCH_harness.json`` can record the policy that produced a
  number;
* **derivable** — :meth:`derive` is ``dataclasses.replace`` with
  validation, the one idiom for "this policy, but tiled".

Environment variables (all optional)::

    REPRO_RUNTIME         batched | percell
    REPRO_EXECUTOR        serial | thread | process
    REPRO_MAX_WORKERS     positive int, or "none" (executor default)
    REPRO_TILE_SIZE       positive int, or "none" (eager planning)
    REPRO_SCALE           smoke | default | full
    REPRO_SAMPLING_RATE   float in (0, 1]
    REPRO_SEED            int
    REPRO_TELEMETRY       off | summary | trace
    REPRO_FAULTS          fault-plan spec, e.g. "seed=7;worker.crash=0.5x2"
    REPRO_MAX_RETRIES     non-negative int (self-healing retry bound)
    REPRO_TILE_TIMEOUT    positive float seconds, or "none" (no timeout)
    REPRO_FAILURE_MODE    raise | fallback
    REPRO_POLICY_FILE     path to a JSON policy file (the file layer)

The variables of removed fields (``REPRO_BACKEND``, ``REPRO_SHARDS``,
``REPRO_STREAM_VERSION``) are refused with an :class:`ExperimentError`
that names them.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from ..exceptions import ExperimentError
from ..experiments.config import PRESETS, ScalePreset, preset_by_name
from ..faults import FAILURE_MODES, FaultPlan
from ..runtime.executor import EXECUTOR_KINDS

__all__ = [
    "POLICY_ENV_VARS",
    "POLICY_FILE_ENV",
    "ExecutionPolicy",
]

#: Environment variable consulted for the policy-file layer.
POLICY_FILE_ENV = "REPRO_POLICY_FILE"

#: field name -> environment variable of the env layer.
POLICY_ENV_VARS: dict[str, str] = {
    "runtime": "REPRO_RUNTIME",
    "executor": "REPRO_EXECUTOR",
    "max_workers": "REPRO_MAX_WORKERS",
    "tile_size": "REPRO_TILE_SIZE",
    "scale": "REPRO_SCALE",
    "sampling_rate": "REPRO_SAMPLING_RATE",
    "seed": "REPRO_SEED",
    "telemetry": "REPRO_TELEMETRY",
    "faults": "REPRO_FAULTS",
    "max_retries": "REPRO_MAX_RETRIES",
    "tile_timeout": "REPRO_TILE_TIMEOUT",
    "failure_mode": "REPRO_FAILURE_MODE",
}

#: Variables of removed fields.  A stale one is refused, as the same field
#: in a policy file or in explicit values is, rather than silently ignored.
_REMOVED_ENV_VARS = ("REPRO_BACKEND", "REPRO_SHARDS", "REPRO_STREAM_VERSION")

_RUNTIMES = ("batched", "percell")
_TELEMETRY = ("off", "summary", "trace")


def _parse_optional_int(field: str, raw: str) -> int | None:
    if raw.strip().lower() in ("", "none", "null"):
        return None
    try:
        return int(raw)
    except ValueError:
        raise ExperimentError(
            f"{POLICY_ENV_VARS[field]}={raw!r} is not an integer (or 'none')"
        ) from None


def _parse_env(field: str, raw: str):
    """Parse one ``REPRO_*`` value into its field's type."""
    if field in ("max_workers", "tile_size"):
        return _parse_optional_int(field, raw)
    if field == "tile_timeout":
        if raw.strip().lower() in ("", "none", "null"):
            return None
        try:
            return float(raw)
        except ValueError:
            raise ExperimentError(
                f"{POLICY_ENV_VARS[field]}={raw!r} is not a number (or 'none')"
            ) from None
    if field == "faults":
        return raw.strip() or None
    if field in ("seed", "max_retries"):
        try:
            return int(raw)
        except ValueError:
            raise ExperimentError(
                f"{POLICY_ENV_VARS[field]}={raw!r} is not an integer"
            ) from None
    if field == "sampling_rate":
        try:
            return float(raw)
        except ValueError:
            raise ExperimentError(
                f"{POLICY_ENV_VARS[field]}={raw!r} is not a number"
            ) from None
    return raw


@dataclass(frozen=True)
class ExecutionPolicy:
    """Every execution knob of the repeated-CV protocol, as one value.

    Attributes
    ----------
    runtime:
        Cell execution mode of every protocol call, budget sweeps
        included: ``"batched"`` (stacked LAPACK kernels) or
        ``"percell"`` (the reference oracle).
    executor:
        Where parallel work runs: ``"serial"``, ``"thread"`` or
        ``"process"``.  A long-lived :class:`~repro.session.Session`
        keeps one pool of this kind alive across calls.
    max_workers:
        Pool width (``None`` = the executor's default).
    tile_size:
        Repetitions resident per tile (``None`` = eager planning).
    scale:
        Named compute preset (``smoke`` / ``default`` / ``full``); the
        :attr:`preset` property resolves it.  Call sites may still pass a
        custom :class:`~repro.experiments.config.ScalePreset` explicitly.
    sampling_rate:
        Table-2 sampling rate applied to the preset-capped cardinality.
    seed:
        Base seed every cell substream derives from.
    telemetry:
        Observability level (see :mod:`repro.obs`): ``"off"`` installs
        the no-op recorder (hot paths pay one null-check), ``"summary"``
        aggregates counters/gauges/span stats, ``"trace"`` additionally
        retains every span for JSONL export.  Telemetry never changes
        scores or golden digests.
    faults:
        Deterministic fault-injection plan in the ``REPRO_FAULTS``
        grammar (see :meth:`repro.faults.FaultPlan.parse`), e.g.
        ``"seed=7;worker.crash=0.5x2"``.  ``None`` (the default) injects
        nothing.  Injection is chaos-testing machinery: recovery must
        leave scores and golden digests bitwise unchanged.
    max_retries:
        Self-healing retry bound: how many *zero-progress* rounds the
        process executors tolerate (pool rebuilds + re-submission of only
        the failed tiles) before giving up.  ``0`` disables retries.
    tile_timeout:
        Per-tile wall-clock timeout in seconds for process executors
        (``None`` = no timeout).  A tile exceeding it is treated as a
        hung worker: the pool is rebuilt and the tile retried.
    failure_mode:
        What exhausting ``max_retries`` means: ``"raise"`` propagates
        :class:`~repro.exceptions.ExecutorBrokenError`; ``"fallback"``
        lets the runner degrade process → thread → serial, resuming from
        the completed prefix.
    """

    runtime: str = "batched"
    executor: str = "serial"
    max_workers: int | None = None
    tile_size: int | None = None
    scale: str = "default"
    sampling_rate: float = 1.0
    seed: int = 0
    telemetry: str = "off"
    faults: str | None = None
    max_retries: int = 2
    tile_timeout: float | None = None
    failure_mode: str = "raise"

    def __post_init__(self) -> None:
        if self.runtime not in _RUNTIMES:
            raise ExperimentError(
                f"runtime must be one of {_RUNTIMES}, got {self.runtime!r}"
            )
        if self.executor not in EXECUTOR_KINDS:
            raise ExperimentError(
                f"executor must be one of {EXECUTOR_KINDS}, got {self.executor!r}"
            )
        for field in ("max_workers", "tile_size"):
            value = getattr(self, field)
            if value is not None and (not isinstance(value, int) or value < 1):
                raise ExperimentError(
                    f"{field} must be a positive integer or None, got {value!r}"
                )
        if self.scale not in PRESETS:
            raise ExperimentError(
                f"scale must be one of {sorted(PRESETS)}, got {self.scale!r}"
            )
        if not isinstance(self.sampling_rate, (int, float)) or not (
            0.0 < float(self.sampling_rate) <= 1.0
        ):
            raise ExperimentError(
                f"sampling_rate must be in (0, 1], got {self.sampling_rate!r}"
            )
        if not isinstance(self.seed, int):
            raise ExperimentError(f"seed must be an integer, got {self.seed!r}")
        if self.telemetry not in _TELEMETRY:
            raise ExperimentError(
                f"telemetry must be one of {_TELEMETRY}, got {self.telemetry!r}"
            )
        if self.faults is not None:
            if not isinstance(self.faults, str):
                raise ExperimentError(
                    f"faults must be a plan string or None, got {self.faults!r}"
                )
            try:
                FaultPlan.parse(self.faults)
            except ValueError as error:
                raise ExperimentError(
                    f"invalid faults plan {self.faults!r}: {error}"
                ) from None
        if not isinstance(self.max_retries, int) or self.max_retries < 0:
            raise ExperimentError(
                f"max_retries must be a non-negative integer, got "
                f"{self.max_retries!r}"
            )
        if self.tile_timeout is not None and (
            not isinstance(self.tile_timeout, (int, float))
            or not float(self.tile_timeout) > 0.0
        ):
            raise ExperimentError(
                f"tile_timeout must be a positive number or None, got "
                f"{self.tile_timeout!r}"
            )
        if self.failure_mode not in FAILURE_MODES:
            raise ExperimentError(
                f"failure_mode must be one of {FAILURE_MODES}, got "
                f"{self.failure_mode!r}"
            )

    # ------------------------------------------------------------------
    # Derivation & resolution
    # ------------------------------------------------------------------
    def derive(self, **changes) -> "ExecutionPolicy":
        """This policy with some fields replaced (and re-validated)."""
        try:
            return dataclasses.replace(self, **changes)
        except TypeError:
            known = {f.name for f in dataclasses.fields(self)}
            unknown = sorted(set(changes) - known)
            raise ExperimentError(
                f"unknown policy field(s) {unknown}; expected a subset of "
                f"{sorted(known)}"
            ) from None

    @classmethod
    def resolve(
        cls,
        explicit: Mapping | None = None,
        base: "ExecutionPolicy | None" = None,
        env: Mapping[str, str] | None = None,
        policy_file: str | Path | None = None,
    ) -> "ExecutionPolicy":
        """Layered policy resolution: explicit > env > file > base defaults.

        Parameters
        ----------
        explicit:
            Field values the caller pinned (CLI flags, constructor
            kwargs).  Entries that are ``None`` mean "not specified" and
            fall through to the lower layers — the one field where
            ``None`` is itself meaningful (``tile_size``; also
            ``max_workers``) is therefore *unset-able* here only via the
            lower layers' ``"none"`` spelling.
        base:
            The defaults layer (e.g. the CLI's smoke-scale default);
            class defaults when omitted.
        env:
            Environment mapping (default ``os.environ``); only the
            ``REPRO_*`` variables in :data:`POLICY_ENV_VARS` are read, and
            one of a removed field is refused.
        policy_file:
            JSON file of field values; default: the ``REPRO_POLICY_FILE``
            environment variable, if set.
        """
        environ = os.environ if env is None else env
        values: dict = {}
        if policy_file is None:
            policy_file = environ.get(POLICY_FILE_ENV) or None
        if policy_file is not None:
            values.update(cls._load_policy_file(policy_file))
        stale = [variable for variable in _REMOVED_ENV_VARS if variable in environ]
        if stale:
            raise ExperimentError(
                f"{', '.join(stale)}: the policy field was removed; unset the "
                f"variable"
            )
        for field, variable in POLICY_ENV_VARS.items():
            raw = environ.get(variable)
            if raw is not None:
                values[field] = _parse_env(field, raw)
        if explicit:
            known = {f.name for f in dataclasses.fields(cls)}
            unknown = sorted(set(explicit) - known)
            if unknown:
                raise ExperimentError(
                    f"unknown policy field(s) {unknown}; expected a subset "
                    f"of {sorted(known)}"
                )
            values.update({k: v for k, v in explicit.items() if v is not None})
        return (base or cls()).derive(**values)

    @staticmethod
    def _load_policy_file(path: str | Path) -> dict:
        try:
            raw = Path(path).read_text()
        except OSError as error:
            raise ExperimentError(f"cannot read policy file {path}: {error}") from None
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as error:
            raise ExperimentError(
                f"policy file {path} is not valid JSON: {error}"
            ) from None
        if not isinstance(data, dict):
            raise ExperimentError(
                f"policy file {path} must hold a JSON object of policy fields"
            )
        known = {f.name for f in dataclasses.fields(ExecutionPolicy)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ExperimentError(
                f"policy file {path} has unknown field(s) {unknown}; "
                f"expected a subset of {sorted(known)}"
            )
        return data

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """A JSON-safe mapping of every field (round-trips exactly)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping) -> "ExecutionPolicy":
        """Rebuild a policy from :meth:`to_dict` output (validated)."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ExperimentError(
                f"unknown policy field(s) {unknown}; expected a subset of "
                f"{sorted(known)}"
            )
        return cls(**dict(data))

    def to_json(self, indent: int | None = None) -> str:
        """The policy as a JSON object string."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExecutionPolicy":
        """Parse :meth:`to_json` output back into a validated policy."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ExperimentError(f"policy JSON is malformed: {error}") from None
        if not isinstance(data, dict):
            raise ExperimentError("policy JSON must be an object of policy fields")
        return cls.from_dict(data)

    # ------------------------------------------------------------------
    # Convenience views
    # ------------------------------------------------------------------
    @property
    def preset(self) -> ScalePreset:
        """The :class:`ScalePreset` named by :attr:`scale`."""
        return preset_by_name(self.scale)

    def describe(self) -> str:
        """A compact one-line rendering (for warnings and reports)."""
        fields = ", ".join(
            f"{f.name}={getattr(self, f.name)!r}"
            for f in dataclasses.fields(self)
            if getattr(self, f.name) != f.default
        )
        return f"ExecutionPolicy({fields})"
