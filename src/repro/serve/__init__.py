"""``repro.serve`` — the crash-tolerant multi-tenant DP serving layer.

The ROADMAP's DP-as-a-service direction, built on PR 7's durability
primitives: tenants stream rows into per-(tenant, task, dims)
:class:`~repro.engine.accumulator.MomentAccumulator`s and request
Functional-Mechanism fits at any epsilon, with every spend drawn against
a durable per-tenant :class:`~repro.privacy.budget.PrivacyBudget`
write-ahead ledger that refuses over-spend and replays correctly after
``kill -9``.

Layering (each importable and testable without the one above):

:mod:`~repro.serve.protocol`
    Wire validation, the retryable-error taxonomy, deadlines, fit digests.
:mod:`~repro.serve.state`
    Durable tenant state: budget journals, atomic checksummed
    accumulator snapshots, the single-writer lock discipline.
:mod:`~repro.serve.app`
    The transport-independent service core around one persistent
    :class:`~repro.session.Session`.
:mod:`~repro.serve.http`
    Thread-per-connection HTTP/1.1 transport with bounded admission,
    load shedding and a connection cap.
:mod:`~repro.serve.client` / :mod:`~repro.serve.loadgen` / :mod:`~repro.serve.check`
    Stdlib client, deterministic concurrent load generator, and the
    offline ledger/digest verifier used by the chaos acceptance tests.
"""

from .app import ServeApp
from .client import ServeClient, ServeResponseError
from .http import ServeHTTP
from .protocol import (
    BadRequestError,
    BudgetRefusedError,
    Deadline,
    DeadlineExceededError,
    NotReadyError,
    OverloadedError,
    ServeError,
    TenantExistsError,
    UnknownTenantError,
    fit_digest,
)
from .state import TenantRegistry, TenantState

__all__ = [
    "BadRequestError",
    "BudgetRefusedError",
    "Deadline",
    "DeadlineExceededError",
    "NotReadyError",
    "OverloadedError",
    "ServeApp",
    "ServeClient",
    "ServeError",
    "ServeHTTP",
    "ServeResponseError",
    "TenantExistsError",
    "TenantRegistry",
    "TenantState",
    "UnknownTenantError",
    "fit_digest",
]
