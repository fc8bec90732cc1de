"""The transport-independent core of the DP serving layer.

:class:`ServeApp` is everything the service does, minus sockets: tenant
lifecycle, row ingestion, budgeted fits, snapshots, health.  The HTTP
layer (:mod:`repro.serve.http`) is a thin adapter that parses requests
into these synchronous calls; tests drive the app directly, so every
robustness property is testable without a port.

Fit lifecycle and the spend barrier
-----------------------------------
A fit request has exactly one irreversible step: the durable budget
spend.  Everything before it — validation, the statistics snapshot,
deadline checks — can fail *retryably*; everything after it runs to
completion:

1. snapshot the tenant's ``MomentAccumulator`` under the tenant lock
   (immutable view; the lock is released before any heavy work);
2. if the request's deadline already expired, reject retryably — the
   ledger is untouched;
3. ``budget.spend(sum(epsilons))`` against the tenant's write-ahead
   journal — over-spend is refused with a non-retryable 409, a crash
   inside the spend replays conservatively as spent;
4. release every epsilon's model as one stacked sweep — one noise row
   per epsilon, one batched repair and solve for the whole fit — by a
   direct call on the request's thread.  The deadline is checked only
   before the spend: nothing after it can time out, so a committed spend
   always yields a released model.  The session's executor policy never
   reaches a fit.

Determinism: the noise row of epsilon ``index`` is drawn from its own
substream ``derive_substream(seed, [_SERVE_STREAM_TAG, index])`` — a
pure function of the request, independent of execution policy,
concurrency and injected faults — so a fit's
:func:`~repro.serve.protocol.fit_digest` under chaos equals the clean
offline recomputation from the same rows.  Stacking the rows changes no
byte: the noise mapping works row by row, and the batched ``eigh`` /
``solve`` factor each stacked matrix on its own, so the stacked release
equals a separate one-epsilon sweep per index.
"""

from __future__ import annotations

import hashlib
import math
import threading
import time
from contextlib import ExitStack, contextmanager
from pathlib import Path

import numpy as np

from ..engine.sweep import EpsilonSweepEngine
from ..exceptions import BudgetExhaustedError, DataError
from ..experiments.harness import objective_for
from ..faults import use_injector
from ..obs import active_recorder, use_recorder
from ..privacy.rng import derive_substream
from ..session import Session
from .protocol import (
    BadRequestError,
    BudgetRefusedError,
    Deadline,
    DeadlineExceededError,
    NotReadyError,
    fit_digest,
    parse_fit_request,
    parse_ingest_request,
    parse_tenant_request,
)
from .state import TenantRegistry, TenantState

__all__ = ["ServeApp"]

#: Domain tag for serve fit substreams (``b"SRVE"`` as an integer): keyed
#: per (request seed, epsilon index), never by execution order.
_SERVE_STREAM_TAG = 0x53525645


def _partition_site(partition: str | None) -> int | None:
    """A stable integer substream key for a partition name.

    Partitioned fits must not share noise draws with each other (or with
    the unpartitioned fit) under the same request seed: the partitions
    hold *disjoint* data, so bitwise-shared noise would cancel under
    subtraction of two releases.  Folding a hash of the name into the
    substream path keeps every partition's stream independent while
    leaving unpartitioned fits bitwise identical to before.
    """
    if partition is None:
        return None
    return int(hashlib.sha256(partition.encode()).hexdigest()[:8], 16)


def _release(
    task: str,
    dims: int,
    form,
    epsilons: tuple[float, ...],
    seed: int,
    partition_site: int | None = None,
) -> np.ndarray:
    """One fit's Functional-Mechanism release: one model per epsilon.

    Epsilon ``index`` draws its standardized noise row from its own keyed
    substream, and the stacked ``(k, 1 + d + d^2)`` sample is released by
    one :meth:`~repro.engine.sweep.EpsilonSweepEngine.sweep_from_draws`.
    """
    d = dims
    prefix = [_SERVE_STREAM_TAG]
    if partition_site is not None:
        prefix.append(partition_site)
    raw = np.concatenate([
        derive_substream(seed, [*prefix, index]).laplace(
            0.0, 1.0, size=(1, 1 + d + d * d)
        )
        for index in range(len(epsilons))
    ])
    # sweep_from_draws counts no draws (federated callers inject draws
    # they never made), so the draws are counted where they are made.
    active_recorder().counter("engine.laplace_draws", raw.size)
    engine = EpsilonSweepEngine(objective_for(task, d), form)
    return engine.sweep_from_draws(list(epsilons), raw).coefficients


class ServeApp:
    """The serving layer's application core over one persistent session.

    Parameters
    ----------
    data_dir:
        Root of all durable tenant state (ledgers, snapshots, metadata).
        Restored on construction: existing budget journals replay via
        ``PrivacyBudget.restore`` and accumulator snapshots reload from
        their checksummed containers.
    session:
        The :class:`~repro.session.Session` supplying the execution
        policy, recorder and fault injector; the app adopts its tenant
        registry into the session so one ``close()`` tears everything
        down.  ``None`` builds a session from the environment.
    max_resident_tenants / tenant_idle_ttl:
        Tenant-cache bounds forwarded to :class:`TenantRegistry`: an LRU
        cap on in-memory tenants and a seconds-since-last-touch TTL.
        Evicted tenants are snapshotted first and transparently reloaded
        on the next touch.  ``None`` (the default) keeps the historical
        keep-everything behavior.
    """

    def __init__(
        self,
        data_dir: str | Path,
        session: Session | None = None,
        max_resident_tenants: int | None = None,
        tenant_idle_ttl: float | None = None,
    ) -> None:
        self.session = session if session is not None else Session()
        self.registry = TenantRegistry(
            data_dir,
            max_resident=max_resident_tenants,
            idle_ttl=tenant_idle_ttl,
        )
        self._started_at = time.monotonic()
        self._closed = False
        self._close_lock = threading.Lock()
        # The ambient recorder/injector slots are module globals shared by
        # every thread — by design, so executor worker threads see them.
        # Entering/exiting them per request on concurrent connection threads
        # would race the save/restore (and could leak the fault injector
        # past the app's life), so the service installs its session's
        # ambience exactly once, for its whole lifetime.
        self._ambience = ExitStack()
        self._ambience.enter_context(use_recorder(self.session.recorder))
        self._ambience.enter_context(use_injector(self.session.injector))
        try:
            with self._scope("serve.restore"):
                self.restored_tenants = self.registry.restore_all()
        except BaseException:
            self._ambience.close()
            raise
        self.session.adopt(self.registry)
        self._ready = True

    # ------------------------------------------------------------------
    @contextmanager
    def _scope(self, span: str, **attrs):
        """Time one request span on the session's (thread-safe) recorder."""
        recorder = self.session.recorder
        with recorder.span(span, **attrs):
            yield recorder

    def _check_ready(self) -> None:
        if self._closed or not getattr(self, "_ready", False):
            raise NotReadyError("service is starting or draining")

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    def create_tenant(self, body: dict) -> dict:
        name, total = parse_tenant_request(body)
        self._check_ready()
        with self._scope("serve.create_tenant", tenant=name):
            tenant = self.registry.create(name, total)
            with tenant.locked():
                return tenant.status()

    def ingest(self, body: dict) -> dict:
        name, task, dims, partition, X, y, durable = parse_ingest_request(body)
        self._check_ready()
        # Leases pin the tenant resident for the request's whole extent so
        # the idle/LRU evictor can never close its journal mid-flight.
        with self.registry.lease(name) as tenant, self._scope(
            "serve.ingest", tenant=name, rows=len(X)
        ) as recorder:
            with tenant.locked():
                try:
                    n_rows = tenant.ingest(task, dims, X, y, partition=partition)
                except DataError as exc:
                    raise BadRequestError(str(exc)) from None
            if durable:
                tenant.snapshot()
            recorder.counter("serve.rows_ingested", len(X))
            response = {
                "tenant": name,
                "task": task,
                "dims": dims,
                "rows_accepted": int(len(X)),
                "n_rows": int(n_rows),
                "durable": durable,
            }
            if partition is not None:
                response["partition"] = partition
            return response

    def fit(self, body: dict, deadline: Deadline | None = None) -> dict:
        name, task, dims, partition, epsilons, seed = parse_fit_request(body)
        self._check_ready()
        with self.registry.lease(name) as tenant, self._scope(
            "serve.fit", tenant=name, points=len(epsilons)
        ) as recorder:
            if deadline is not None and deadline.expired:
                raise DeadlineExceededError(
                    "deadline expired before fit started", tenant=name
                )
            with tenant.locked():
                key = TenantState.acc_key(task, dims, partition)
                acc = tenant._accumulators.get(key)
                if acc is None or acc.n_rows == 0:
                    where = f"{task} d={dims}" + (
                        f" partition={partition!r}" if partition else ""
                    )
                    raise BadRequestError(
                        f"tenant {name!r} has no rows for {where}; "
                        f"ingest before fitting"
                    )
                statistics = acc.snapshot()
                n_rows = acc.n_rows
            # Last retryable exit: past this point the spend is durable and
            # the fit runs to completion on this thread.
            if deadline is not None and deadline.expired:
                raise DeadlineExceededError(
                    "deadline expired before budget spend", tenant=name
                )
            requested = math.fsum(epsilons)
            note = f"serve fit {task}-d{dims} seed={seed} k={len(epsilons)}"
            try:
                if partition is None:
                    # Sequential composition: the full cost hits the ledger.
                    tenant.budget.spend(requested, note=note)
                    charged = requested
                else:
                    # Parallel composition over disjoint partitions: only
                    # the increase of the running maximum hits the ledger
                    # (possibly nothing — recorded durably either way).
                    charged = tenant.charge_partitioned(partition, requested, note)
            except BudgetExhaustedError as exc:
                recorder.counter("serve.budget_refusals")
                raise BudgetRefusedError(
                    str(exc),
                    tenant=name,
                    requested=exc.requested,
                    remaining=exc.remaining,
                ) from None
            omegas = _release(
                task, dims, statistics.quadratic_form(objective_for(task, dims)),
                epsilons, seed, partition_site=_partition_site(partition),
            )
            digest = fit_digest(task, dims, epsilons, seed, n_rows, omegas)
            recorder.counter("serve.fits")
            recorder.counter("serve.fit_models", len(epsilons))
            response = {
                "tenant": name,
                "task": task,
                "dims": dims,
                "epsilons": list(epsilons),
                "seed": seed,
                "n_rows": int(n_rows),
                "spent_epsilon": charged,
                "remaining_epsilon": tenant.budget.remaining,
                "omegas": [list(map(float, row)) for row in omegas],
                "digest": digest,
            }
            if partition is not None:
                response["partition"] = partition
                response["partition_epsilon"] = requested
            return response

    def status(self, name: str) -> dict:
        with self.registry.lease(name) as tenant, self._scope(
            "serve.status", tenant=name
        ):
            with tenant.locked():
                return tenant.status()

    def snapshot(self) -> dict:
        """Force a durable snapshot of every tenant (admin endpoint)."""
        with self._scope("serve.snapshot"):
            written = self.registry.snapshot_all(force=True)
            return {"snapshots_written": int(written)}

    def periodic_snapshot(self) -> int:
        """One background snapshot + eviction cycle; never raises."""
        try:
            with self._scope("serve.snapshot", periodic=True):
                written = self.registry.snapshot_all()
                self.registry.evict_idle()
                return written
        except Exception:
            self.session.recorder.counter("serve.snapshot_failures")
            return 0

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------
    def healthz(self) -> dict:
        """Liveness: the process is up and handling requests."""
        return {
            "status": "ok" if not self._closed else "closed",
            "uptime_seconds": time.monotonic() - self._started_at,
            "tenants": len(self.registry.names()),
        }

    def readyz(self, extra: dict | None = None) -> dict:
        """Readiness: serving traffic (transport merges admission gauges)."""
        ready = not self._closed and getattr(self, "_ready", False)
        body = {
            "ready": ready,
            "tenants": len(self.registry.names()),
            "restored_tenants": self.restored_tenants,
        }
        if extra:
            body.update(extra)
        if not ready:
            raise NotReadyError("service is starting or draining", **body)
        return body

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drain: final forced snapshot, then release every resource.

        Idempotent.  The final snapshot is best-effort (a disk failure
        must not block shutdown); the session close beneath it never
        raises and tears down the registry's journal handles LIFO.
        """
        with self._close_lock:
            if self._closed:
                return
            self._ready = False
            self._closed = True
        try:
            with self._scope("serve.shutdown"):
                self.registry.snapshot_all(force=True)
        except Exception:
            self.session.recorder.counter("serve.snapshot_failures")
        finally:
            self._ambience.close()
        self.session.close()

    def __enter__(self) -> "ServeApp":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
