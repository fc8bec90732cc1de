"""`repro.faults` — deterministic fault injection and bounded recovery.

The robustness layer has two halves that share this package:

**Injection** (:mod:`repro.faults.plan`, :mod:`repro.faults.injector`)
    A :class:`FaultPlan` (the ``REPRO_FAULTS`` grammar, e.g.
    ``"seed=7;worker.crash=0.5x2;payload.corrupt=1.0"``) and the
    :class:`FaultInjector` that answers, at each compiled-in site,
    whether the fault fires — a pure function of ``(seed, site, index,
    attempt)`` derived through the experiments' own keyed-substream
    machinery, so chaos tests replay the identical fault pattern on
    every run and in every process.

**Recovery** (:class:`RetryPolicy` plus hooks across the stack)
    The contract the self-healing executors run under: bounded
    exponential-backoff pool rebuilds, per-tile timeouts, and a
    ``failure_mode`` that either raises a resumable
    :class:`~repro.exceptions.ExecutorBrokenError` or lets the runner
    degrade process → thread → serial.  Recovery is provably
    digest-neutral because every cell's RNG substream is keyed by
    ``(seed, tag)`` — re-executing a failed tile redraws bitwise
    identical noise wherever it lands.

Instrumented code reads the **active injector**
(:func:`active_injector`), a module-global slot installed by
:func:`use_injector` around each Session entry point — the same pattern
(and for the same thread-visibility reasons) as
:func:`repro.obs.use_recorder`.  The default is the inert
:data:`NULL_INJECTOR`, so an unconfigured stack pays one spec-miss per
site.
"""

from __future__ import annotations

from .injector import (
    NULL_INJECTOR,
    FaultInjector,
    active_injector,
    make_injector,
    use_injector,
)
from .plan import (
    DEFAULT_HANG_SECONDS,
    EXECUTOR_SITES,
    FAILURE_MODES,
    FAULT_SITES,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
)

__all__ = [
    "DEFAULT_HANG_SECONDS",
    "EXECUTOR_SITES",
    "FAILURE_MODES",
    "FAULT_SITES",
    "NULL_INJECTOR",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "RetryPolicy",
    "active_injector",
    "make_injector",
    "use_injector",
]
