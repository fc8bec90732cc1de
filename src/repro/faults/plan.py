"""Fault plans — declarative, seeded descriptions of what to break, where.

A :class:`FaultPlan` is the configuration half of the fault-injection
subsystem: a seed plus a set of :class:`FaultSpec` entries, one per
*site*.  A site is a named hook compiled into the production code path
(``worker.crash`` inside a process-pool child, ``io.transient`` on a
durable-state read or write, ...); the plan says with what probability — and
at most how many times per injection point — each site fires.  The
decision function itself lives in :class:`repro.faults.FaultInjector`
and is a pure function of ``(plan.seed, site, index, attempt)``, so a
chaos test that observed a fault once observes the identical fault
pattern on every re-run, in every process.

Plans serialize to a one-line grammar (the ``REPRO_FAULTS`` environment
variable and ``ExecutionPolicy(faults=...)`` both carry it)::

    seed=7;hang=0.2;worker.crash=0.5x2;payload.corrupt=1.0

``;`` or ``,`` separate entries.  ``seed=<int>`` keys every decision
stream; ``hang=<seconds>`` sets how long an injected ``tile.hang``
sleeps; every other entry is ``<site>=<probability>[x<max_triggers>]``
— ``x2`` means the site fires on at most the first two attempts of an
injection point and then stays quiet, which is how a test expresses
"fail twice, then succeed".

:class:`RetryPolicy` — the recovery half — rides along in this module:
the bounded exponential-backoff contract the self-healing executors run
under, built by the session from ``ExecutionPolicy`` knobs
(``max_retries``, ``tile_timeout``, ``failure_mode``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

__all__ = [
    "DEFAULT_HANG_SECONDS",
    "EXECUTOR_SITES",
    "FAILURE_MODES",
    "FAULT_SITES",
    "FaultPlan",
    "FaultSpec",
    "RetryPolicy",
]

#: Registered injection sites -> the stable integer word keying their
#: decision substreams.  Appending new sites is safe; renumbering is not
#: (it would reshuffle every recorded fault pattern).
FAULT_SITES = {
    "worker.crash": 1,  # os._exit inside a process-pool child
    "tile.hang": 2,  # child sleeps past the tile timeout
    "payload.corrupt": 3,  # bit-flip in the pickled result envelope
    # 4 is retired with its site (cache.corrupt): never reuse it.
    "io.transient": 5,  # TransientIOError on a durable-state read/write
    "budget.crash": 6,  # crash between a budget journal intent and commit
}

#: Sites that execute inside process-pool workers (the self-healing
#: executors own their recovery); the rest fire in the calling process.
EXECUTOR_SITES = ("worker.crash", "tile.hang", "payload.corrupt")

#: Recognized ``RetryPolicy.failure_mode`` values: ``raise`` propagates
#: an :class:`~repro.exceptions.ExecutorBrokenError` after retries are
#: exhausted; ``fallback`` lets the runner degrade process -> thread ->
#: serial and finish the map.
FAILURE_MODES = ("raise", "fallback")

#: How long an injected ``tile.hang`` sleeps unless the plan's ``hang=``
#: entry overrides it.  Deliberately far above any sane ``tile_timeout``
#: so a hang is indistinguishable from a stuck worker.
DEFAULT_HANG_SECONDS = 30.0

_SPEC_RE = re.compile(r"^(?P<prob>[0-9.eE+-]+?)(?:[xX](?P<times>\d+))?$")


@dataclass(frozen=True)
class FaultSpec:
    """One site's firing rule: probability per injection point, trigger cap."""

    site: str
    probability: float
    max_triggers: int = 1

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; expected one of "
                f"{sorted(FAULT_SITES)}"
            )
        object.__setattr__(self, "probability", float(self.probability))
        object.__setattr__(self, "max_triggers", int(self.max_triggers))
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"fault probability must be in [0, 1], got {self.probability!r} "
                f"for site {self.site!r}"
            )
        if self.max_triggers < 1:
            raise ValueError(
                f"max_triggers must be >= 1, got {self.max_triggers!r} "
                f"for site {self.site!r}"
            )

    def describe(self) -> str:
        """This spec as one grammar entry (``site=prob[xN]``)."""
        text = f"{self.site}={self.probability!r}"
        if self.max_triggers != 1:
            text += f"x{self.max_triggers}"
        return text


@dataclass(frozen=True)
class FaultPlan:
    """A seeded set of fault specs; parses from / serializes to the grammar.

    Specs are normalized into site-registry order, so two plans naming
    the same faults compare equal regardless of how their grammar strings
    ordered the entries.  An empty plan (no specs) is falsy and injects
    nothing — :data:`repro.faults.NULL_INJECTOR` wraps one.
    """

    seed: int = 0
    hang_seconds: float = DEFAULT_HANG_SECONDS
    specs: tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "hang_seconds", float(self.hang_seconds))
        object.__setattr__(
            self,
            "specs",
            tuple(sorted(self.specs, key=lambda s: FAULT_SITES[s.site])),
        )
        if self.hang_seconds <= 0:
            raise ValueError(f"hang_seconds must be > 0, got {self.hang_seconds!r}")
        sites = [spec.site for spec in self.specs]
        if len(sites) != len(set(sites)):
            raise ValueError(f"duplicate fault site in plan: {sites}")

    def __bool__(self) -> bool:
        return bool(self.specs)

    def spec_for(self, site: str) -> FaultSpec | None:
        """The spec governing ``site``, or ``None`` when it never fires."""
        for spec in self.specs:
            if spec.site == site:
                return spec
        return None

    @classmethod
    def parse(cls, text: str | None) -> "FaultPlan":
        """Parse the one-line grammar; ``None``/empty yields the inert plan."""
        if text is None:
            return cls()
        seed = 0
        hang = DEFAULT_HANG_SECONDS
        specs: list[FaultSpec] = []
        for raw_entry in re.split(r"[;,]", text):
            entry = raw_entry.strip()
            if not entry:
                continue
            key, sep, value = entry.partition("=")
            key, value = key.strip(), value.strip()
            if not sep or not value:
                raise ValueError(
                    f"malformed fault entry {entry!r}; expected key=value"
                )
            if key == "seed":
                seed = int(value)
                continue
            if key == "hang":
                hang = float(value)
                continue
            match = _SPEC_RE.match(value)
            if match is None:
                raise ValueError(
                    f"malformed fault spec {entry!r}; expected "
                    f"<site>=<probability>[x<max_triggers>]"
                )
            specs.append(
                FaultSpec(
                    site=key,
                    probability=float(match.group("prob")),
                    max_triggers=int(match.group("times") or 1),
                )
            )
        return cls(seed=seed, hang_seconds=hang, specs=tuple(specs))

    def describe(self) -> str:
        """The canonical grammar string; ``parse(describe())`` round-trips."""
        parts = [f"seed={self.seed}"]
        if self.hang_seconds != DEFAULT_HANG_SECONDS:
            parts.append(f"hang={self.hang_seconds!r}")
        parts.extend(spec.describe() for spec in self.specs)
        return ";".join(parts)


@dataclass(frozen=True)
class RetryPolicy:
    """The self-healing executors' bounded-retry contract.

    ``max_retries`` bounds *unproductive* recovery rounds (a round that
    completed at least one item resets nothing and costs nothing — the
    bound is on consecutive wasted rebuilds, so a slowly succeeding map
    is never abandoned).  ``max_retries=0`` restores the pre-hardening
    behaviour exactly: the first pool failure propagates.

    ``tile_timeout`` (seconds per work item, ``None`` = wait forever)
    lets process maps detect a hung worker, kill it and retry its item.

    ``failure_mode`` decides what an exhausted retry budget means:
    ``"raise"`` propagates :class:`~repro.exceptions.ExecutorBrokenError`
    (carrying the completed prefix), ``"fallback"`` asks the runner to
    finish the pending items on a degraded executor (thread, then
    serial) — bitwise-safe because cell substreams are keyed, not
    positional.
    """

    max_retries: int = 2
    backoff_seconds: float = 0.05
    backoff_cap: float = 2.0
    tile_timeout: float | None = None
    failure_mode: str = "raise"

    def __post_init__(self) -> None:
        object.__setattr__(self, "max_retries", int(self.max_retries))
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries!r}")
        if self.backoff_seconds < 0:
            raise ValueError(
                f"backoff_seconds must be >= 0, got {self.backoff_seconds!r}"
            )
        if self.backoff_cap < 0:
            raise ValueError(f"backoff_cap must be >= 0, got {self.backoff_cap!r}")
        if self.tile_timeout is not None:
            object.__setattr__(self, "tile_timeout", float(self.tile_timeout))
            if self.tile_timeout <= 0:
                raise ValueError(
                    f"tile_timeout must be > 0 or None, got {self.tile_timeout!r}"
                )
        if self.failure_mode not in FAILURE_MODES:
            raise ValueError(
                f"failure_mode must be one of {FAILURE_MODES}, "
                f"got {self.failure_mode!r}"
            )

    def delay(self, attempt: int) -> float:
        """Exponential backoff before retry round ``attempt`` (capped)."""
        return min(self.backoff_seconds * (2.0 ** int(attempt)), self.backoff_cap)
