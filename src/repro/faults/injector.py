"""`FaultInjector` — deterministic fault decisions and corruption actions.

The injector is the runtime half of :mod:`repro.faults.plan`: production
code asks it, at each compiled-in site, "does the fault fire *here*?".
The answer is a pure function of ``(plan.seed, site, index, attempt)``,
computed through the same keyed-substream derivation the experiments use
(:func:`repro.privacy.rng.derive_substream`, under a dedicated domain word
so fault streams can never collide with noise streams).  Purity is the
point: a process-pool child and its parent agree on which items crash
without exchanging any state, and re-running a chaos test replays the
exact fault pattern.

Two query styles:

:meth:`FaultInjector.decide`
    Stateless — the caller supplies the attempt number.  Used by the
    executor sites, where the parent tracks per-item attempts across
    pool rebuilds and ships the attempt to the child with the work.
:meth:`FaultInjector.consume`
    Stateful — the injector counts how often each ``(site, index)``
    point has fired and stops at the spec's ``max_triggers``.  Used by
    the in-process sites (transient IO, budget crash),
    where "fail twice then succeed" needs memory.  Calls are made from
    deterministic code paths, so the counts — and therefore the fired
    pattern — are reproducible too.

Like the observability layer's recorder, the *active* injector is a
module-global slot (:func:`use_injector` installs one around each
Session entry point; see :mod:`repro.obs` for why a ``ContextVar`` would
hand lazily created pool threads the wrong one).  The default is
:data:`NULL_INJECTOR`, whose every query is a dictionary miss — the
fault hooks cost one attribute read plus a predictable branch when no
chaos is configured.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

from ..obs import active_recorder
from ..privacy.rng import derive_substream
from .plan import EXECUTOR_SITES, FAULT_SITES, FaultPlan

__all__ = [
    "NULL_INJECTOR",
    "FaultInjector",
    "active_injector",
    "make_injector",
    "use_injector",
]

#: Domain word prefixing every fault-decision substream tag: fault draws
#: live in their own namespace, disjoint from every experiment stream.
_FAULT_DOMAIN = 0xFA0175

#: Second word distinguishing corruption-position draws from fire/no-fire
#: decision draws at the same ``(site, index)``.
_CORRUPT_WORD = 0xC0


class FaultInjector:
    """Answer "does fault ``site`` fire at point ``index``?" — reproducibly.

    ``plan=None`` (or an empty plan) builds an inert injector: every
    query returns ``False`` after one spec lookup.  The injector itself
    is cheap to construct and picklable-by-plan: process-pool children
    rebuild one from ``plan.describe()`` rather than receiving parent
    state, which is safe exactly because decisions are stateless
    functions of the plan.
    """

    def __init__(self, plan: FaultPlan | None = None) -> None:
        self.plan = plan if plan is not None else FaultPlan()
        self._fired: dict[tuple[str, int], int] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def active(self) -> bool:
        """Whether any site can fire at all."""
        return bool(self.plan)

    def site_active(self, site: str) -> bool:
        """Whether ``site`` has a spec with non-zero probability."""
        spec = self.plan.spec_for(site)
        return spec is not None and spec.probability > 0.0

    @property
    def executor_faults_active(self) -> bool:
        """Whether any process-worker site is live (routes maps through
        the per-item submit path so crashes/hangs/corruption are caught)."""
        return any(self.site_active(site) for site in EXECUTOR_SITES)

    def describe(self) -> str:
        """The underlying plan's canonical grammar string."""
        return self.plan.describe()

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    def decide(self, site: str, index: int, attempt: int = 0) -> bool:
        """Stateless decision: does ``site`` fire at ``index`` on ``attempt``?

        The underlying uniform draw depends only on ``(seed, site,
        index)`` — not the attempt — so a selected point fires on
        attempts ``0 .. max_triggers-1`` and then succeeds: the grammar's
        ``x<N>`` reads "fail the first N tries".
        """
        spec = self.plan.spec_for(site)
        if spec is None or spec.probability <= 0.0:
            return False
        if attempt >= spec.max_triggers:
            return False
        if spec.probability >= 1.0:
            return True
        gen = derive_substream(
            self.plan.seed,
            [_FAULT_DOMAIN, FAULT_SITES[site], int(index)],
        )
        return float(gen.random()) < spec.probability

    def consume(self, site: str, index: int) -> bool:
        """Stateful decision for in-process sites: counts its own attempts.

        Each ``(site, index)`` point remembers how many times it has
        fired; once the spec's ``max_triggers`` is reached the point
        stays quiet, which is what lets a retry loop around the site
        eventually succeed.  Fires are recorded as
        ``faults.injected.<site>`` counters on the active recorder.
        """
        with self._lock:
            attempt = self._fired.get((site, int(index)), 0)
            if not self.decide(site, index, attempt):
                return False
            self._fired[(site, int(index))] = attempt + 1
        recorder = active_recorder()
        recorder.counter("faults.injected")
        recorder.counter(f"faults.injected.{site}")
        return True

    # ------------------------------------------------------------------
    # Corruption actions
    # ------------------------------------------------------------------
    def corrupt_bytes(self, data: bytes, site: str, index: int) -> bytes:
        """Flip one deterministic byte of ``data`` (guaranteed to differ)."""
        if not data:
            return data
        gen = derive_substream(
            self.plan.seed,
            [_FAULT_DOMAIN, _CORRUPT_WORD, FAULT_SITES[site], int(index)],
        )
        position = int(gen.integers(0, len(data)))
        mask = int(gen.integers(1, 256))  # non-zero XOR: the byte must change
        corrupted = bytearray(data)
        corrupted[position] ^= mask
        return bytes(corrupted)


#: The shared inert injector: every decision is one spec-miss.
NULL_INJECTOR = FaultInjector(None)

_ACTIVE: FaultInjector = NULL_INJECTOR


def active_injector() -> FaultInjector:
    """The injector fault sites should consult right now."""
    return _ACTIVE


@contextmanager
def use_injector(injector: FaultInjector):
    """Install ``injector`` as the active injector for the duration.

    Re-entrant like :func:`repro.obs.use_recorder` (and a module global
    for the same reason: lazily created executor worker threads must see
    the session's injector, which a thread-creation-time ``ContextVar``
    copy would not guarantee).  Process-pool workers do not read the
    slot: each item ships the plan text, and the worker re-derives an
    injector from it.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = injector
    try:
        yield injector
    finally:
        _ACTIVE = previous


def make_injector(faults: str | FaultPlan | None) -> FaultInjector:
    """The injector for one policy ``faults`` value (inactive → shared no-op)."""
    if faults is None:
        return NULL_INJECTOR
    plan = faults if isinstance(faults, FaultPlan) else FaultPlan.parse(faults)
    if not plan:
        return NULL_INJECTOR
    return FaultInjector(plan)
