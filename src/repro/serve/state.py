"""Durable per-tenant state for :mod:`repro.serve`.

One tenant owns three things, all rooted under
``<data_dir>/tenants/<name>/``:

``meta.json``
    The tenant's identity and total budget, written atomically at
    creation (temp file + fsync + ``os.replace``).
``budget.journal``
    The :class:`~repro.privacy.budget.PrivacyBudget` write-ahead journal.
    On startup a non-empty journal is resumed via
    :meth:`~repro.privacy.budget.PrivacyBudget.restore` — never
    re-created — so spends survive ``kill -9`` by construction.
``acc/<task>-d<dims>.acc``
    One checksummed ``.acc`` container (via
    :func:`repro.engine.accumulator.encode_entry`) per (task, dims)
    accumulator, re-written atomically by periodic snapshots.  A corrupt
    container found at startup is quarantined out of the snapshot
    directory: rows ingested since the last good snapshot are lost
    (they are data, re-sendable by the tenant) but budget spends are
    not, because the ledger has its own journal.

Concurrency model — single writer per tenant
--------------------------------------------
All mutation of a tenant's accumulators happens under that tenant's
lock, acquired through :meth:`TenantState.locked`.  The service keeps
the discipline of one *logical* writer per tenant (a tenant's rows
arrive from one client stream); the lock is the backstop that turns an
accidental second writer into a counted, serialized wait instead of a
corrupted accumulator.  Every contended acquisition increments the
``serve.lock_contention`` counter, so a deployment can alert on
discipline violations instead of discovering them as wrong answers.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import tempfile
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from ..engine.accumulator import MomentAccumulator, decode_entry, encode_entry
from ..exceptions import CacheIntegrityError, TransientIOError
from ..faults import active_injector
from ..obs import active_recorder
from ..privacy.budget import PrivacyBudget
from .protocol import (
    BadRequestError,
    TenantExistsError,
    UnknownTenantError,
)

__all__ = ["TenantRegistry", "TenantState", "partition_note_tag"]

#: ``meta.json`` format version.
_META_VERSION = 1

#: Bounded retries for transient IO on snapshot writes/reads.
_IO_ATTEMPTS = 3


#: Machine-readable tag appended to every partitioned fit's ledger note;
#: :func:`_partition_totals` re-derives the per-partition running totals
#: from these after a restore, so the parallel-composition accounting is
#: exactly as durable as the ledger itself.
_PARTITION_NOTE_RE = re.compile(
    r"\[partition=(?P<name>[A-Za-z0-9._-]+) requested=(?P<eps>[0-9.eE+-]+)\]"
)


def partition_note_tag(partition: str, requested: float) -> str:
    """The durable note tag recording one partitioned fit's full cost."""
    return f"[partition={partition} requested={float(requested):.17g}]"


def _partition_totals(ledger) -> dict[str, float]:
    """Per-partition cumulative requested epsilon, re-derived from notes.

    Every partitioned fit — whether it charged a positive delta or was
    annotated as parallel-covered — leaves one tagged ledger entry, so
    summing the tags reproduces the in-memory totals bitwise-equivalently
    (``fsum`` per partition, in ledger order).
    """
    per_partition: dict[str, list[float]] = {}
    for entry in ledger:
        match = _PARTITION_NOTE_RE.search(entry.note)
        if match is None:
            continue
        per_partition.setdefault(match.group("name"), []).append(
            float(match.group("eps"))
        )
    return {name: math.fsum(values) for name, values in per_partition.items()}


def _site_index(tenant: str, key: str = "") -> int:
    """Stable fault-site index for a tenant's durable files."""
    digest = hashlib.sha256(f"{tenant}:{key}".encode()).hexdigest()
    return int(digest[:8], 16)


def _atomic_write(path: Path, blob: bytes) -> None:
    """Write ``blob`` to ``path`` via temp file + fsync + atomic replace."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    tmp = Path(tmp_name)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        tmp.replace(path)
    finally:
        tmp.unlink(missing_ok=True)


def _with_io_retries(site: int, operation, what: str):
    """Run ``operation`` with bounded ``io.transient`` retries.

    The injected-fault check sits *inside* the loop,
    so a transient plan with ``xN`` repetitions exhausts its triggers
    against the retries rather than failing the request outright.
    """
    recorder = active_recorder()
    injector = active_injector()
    for attempt in range(_IO_ATTEMPTS):
        try:
            if injector.consume("io.transient", site):
                raise TransientIOError(f"injected transient IO failure: {what}")
            return operation()
        except TransientIOError:
            recorder.counter("serve.io_retries")
            if attempt == _IO_ATTEMPTS - 1:
                raise
    raise AssertionError("unreachable")  # pragma: no cover


class TenantState:
    """One tenant's accumulators, durable budget, and writer lock."""

    def __init__(self, name: str, root: Path, budget: PrivacyBudget) -> None:
        self.name = name
        self.root = root
        self.budget = budget
        self._lock = threading.Lock()
        # Parallel-composition accounting: per-partition cumulative
        # requested epsilon, guarded by its own small lock (partition
        # charges are quick and must not count as writer contention).
        # Rebuilt from the restored ledger's tagged notes, so a restart
        # resumes charging against the same running maxima.
        self._budget_lock = threading.Lock()
        self._partition_spent: dict[str, float] = _partition_totals(budget.ledger)
        self._accumulators: dict[str, MomentAccumulator] = {}
        # Keys whose accumulator changed since their last durable snapshot.
        self._dirty: set[str] = set()
        # Registry bookkeeping (both guarded by the *registry* lock):
        # requests currently leasing this tenant, and whether this object
        # was evicted (stale references must re-checkout, never mutate).
        self._inflight = 0
        self._evicted = False

    # ------------------------------------------------------------------
    # Locking discipline
    # ------------------------------------------------------------------
    @contextmanager
    def locked(self):
        """Acquire this tenant's writer lock, counting contention.

        The fast path is an uncontended non-blocking acquire; when that
        fails — a second writer is active — the ``serve.lock_contention``
        counter increments before the blocking wait, making violations
        of the single-writer discipline observable.
        """
        acquired = self._lock.acquire(blocking=False)
        if not acquired:
            active_recorder().counter("serve.lock_contention")
            self._lock.acquire()
        try:
            yield self
        finally:
            self._lock.release()

    # ------------------------------------------------------------------
    # Accumulator access (call under ``locked()``)
    # ------------------------------------------------------------------
    @staticmethod
    def acc_key(task: str, dims: int, partition: str | None = None) -> str:
        """Accumulator map/file key; partitioned keys get a ``+<name>``
        suffix (``+`` is outside the partition-name alphabet, so the
        mapping is unambiguous and round-trips through ``.acc`` stems)."""
        base = f"{task}-d{dims}"
        return base if partition is None else f"{base}+{partition}"

    def accumulator(
        self, task: str, dims: int, partition: str | None = None
    ) -> MomentAccumulator:
        """The (task, dims[, partition]) accumulator, created on first use."""
        key = self.acc_key(task, dims, partition)
        acc = self._accumulators.get(key)
        if acc is None:
            acc = MomentAccumulator(dim=dims)
            self._accumulators[key] = acc
        return acc

    def ingest(
        self,
        task: str,
        dims: int,
        X: np.ndarray,
        y: np.ndarray,
        partition: str | None = None,
    ) -> int:
        """Stream rows into the (task, dims[, partition]) accumulator;
        returns its total rows.

        Caller holds the lock.  Accumulator domain validation (row norms,
        target range) raises ``ValueError`` which the app maps to a 400.
        """
        acc = self.accumulator(task, dims, partition)
        acc.update(X, y)
        self._dirty.add(self.acc_key(task, dims, partition))
        return acc.n_rows

    # ------------------------------------------------------------------
    # Parallel-composition budget accounting
    # ------------------------------------------------------------------
    def partition_spent(self) -> dict[str, float]:
        """A copy of the per-partition cumulative requested epsilons."""
        with self._budget_lock:
            return dict(self._partition_spent)

    def charge_partitioned(self, partition: str, requested: float, note: str) -> float:
        """Charge a fit over one disjoint partition; returns the delta charged.

        Partitions hold disjoint users, so the tenant's true privacy
        loss across partitioned fits is the **maximum** of the
        per-partition totals, not their sum (parallel composition).  The
        ledger stays a plain sequential accountant: each partitioned fit
        charges only the amount by which its partition's new total
        exceeds the previous running maximum —

            delta = (spent[p] + requested) - max_q spent[q]

        — and a non-positive delta becomes a durable zero-cost
        :meth:`~repro.privacy.budget.PrivacyBudget.annotate` instead.
        Either way the entry carries :func:`partition_note_tag`, so a
        restore re-derives ``spent[·]`` from the ledger and resumes the
        same maxima.  Raises
        :class:`~repro.exceptions.BudgetExhaustedError` (ledger
        untouched, totals unchanged) when the delta does not fit.
        """
        requested = float(requested)
        with self._budget_lock:
            ceiling = max(self._partition_spent.values(), default=0.0)
            new_total = self._partition_spent.get(partition, 0.0) + requested
            delta = new_total - ceiling
            tag = partition_note_tag(partition, requested)
            if delta > 0.0:
                self.budget.spend(delta, note=f"{note} {tag}")
            else:
                self.budget.annotate(f"{note} {tag} parallel-covered")
            self._partition_spent[partition] = new_total
            return max(delta, 0.0)

    def status(self) -> dict:
        """A JSON-ready view of this tenant (call under ``locked()``)."""
        return {
            "tenant": self.name,
            "budget": {
                "total": self.budget.total,
                "spent": self.budget.spent,
                "remaining": self.budget.remaining,
                "entries": len(self.budget.ledger),
                "partitions": self.partition_spent(),
            },
            "accumulators": {
                key: {"n_rows": acc.n_rows, "dims": acc.dim}
                for key, acc in sorted(self._accumulators.items())
            },
        }

    # ------------------------------------------------------------------
    # Durable snapshots
    # ------------------------------------------------------------------
    @property
    def acc_dir(self) -> Path:
        return self.root / "acc"

    def snapshot(self, force: bool = False) -> int:
        """Write dirty accumulators to checksummed ``.acc`` files atomically.

        Returns the number of containers written.  Runs under the tenant
        lock so a snapshot can never observe a half-applied ingest.
        Transient IO failures retry boundedly; a persistent failure
        raises (snapshot callers treat it as a degraded-but-alive
        condition — the accumulators stay dirty and the next cycle
        retries).
        """
        # Plain blocking acquire: the snapshot thread contending with the
        # tenant's writer is expected, not a discipline violation, so it
        # must not inflate ``serve.lock_contention``.
        with self._lock:
            written = self._snapshot_locked(force=force)
        if written:
            active_recorder().counter("serve.snapshot_writes", written)
        return written

    def _snapshot_locked(self, force: bool = False) -> int:
        """:meth:`snapshot`'s body, for callers already holding the lock
        (the registry's evictor, which tested the lock non-blockingly)."""
        written = 0
        keys = sorted(self._accumulators) if force else sorted(self._dirty)
        for key in keys:
            acc = self._accumulators.get(key)
            if acc is None:
                self._dirty.discard(key)
                continue
            blob = encode_entry(acc)
            path = self.acc_dir / f"{key}.acc"
            site = _site_index(self.name, key)
            _with_io_retries(
                site, lambda: _atomic_write(path, blob), str(path)
            )
            self._dirty.discard(key)
            written += 1
        return written

    def load_snapshots(self) -> int:
        """Restore accumulators from ``acc/*.acc``; returns count loaded.

        A container that fails its checksum is moved to ``quarantine/``
        (bytes preserved for forensics) and skipped: the tenant restarts
        that accumulator empty, which loses re-sendable rows but never
        fabricates statistics.
        """
        recorder = active_recorder()
        loaded = 0
        if not self.acc_dir.is_dir():
            return 0
        for path in sorted(self.acc_dir.glob("*.acc")):
            key = path.stem
            site = _site_index(self.name, key)
            blob = _with_io_retries(site, path.read_bytes, str(path))
            try:
                acc = decode_entry(blob)
            except CacheIntegrityError:
                quarantine = self.root / "quarantine"
                quarantine.mkdir(parents=True, exist_ok=True)
                try:
                    path.replace(quarantine / path.name)
                except OSError:
                    path.unlink(missing_ok=True)
                recorder.counter("serve.snapshot_quarantined")
                continue
            self._accumulators[key] = acc
            loaded += 1
        return loaded

    def close(self) -> None:
        self.budget.close()


class TenantRegistry:
    """All tenants under one data directory, restored on startup.

    The registry lock only guards the tenant *map* (creation, lookup,
    lease counts, eviction); per-tenant mutation is each tenant's own
    lock — lock ordering is always registry before tenant.

    Residency is bounded: without eviction the map grows by one
    :class:`TenantState` (accumulators, ledger, journal handle) per
    tenant ever touched and never shrinks — a memory leak under
    many-tenant load.  ``max_resident`` (LRU) and ``idle_ttl`` (seconds
    since last touch) bound it; an evicted tenant is snapshotted to disk
    first and transparently reloaded on its next touch, so eviction is
    invisible to clients beyond the ``serve.tenant_evictions`` counter —
    the budget journal and forced accumulator snapshot make the reloaded
    fit bitwise identical to an unevicted one.  Tenants currently leased
    (or whose lock is held) are skipped, never torn down mid-request.
    """

    def __init__(
        self,
        data_dir: str | Path,
        max_resident: int | None = None,
        idle_ttl: float | None = None,
    ) -> None:
        if max_resident is not None and max_resident < 1:
            raise BadRequestError(f"max_resident must be >= 1, got {max_resident}")
        if idle_ttl is not None and idle_ttl <= 0:
            raise BadRequestError(f"idle_ttl must be positive, got {idle_ttl}")
        self.root = Path(data_dir)
        self.tenants_dir = self.root / "tenants"
        self.tenants_dir.mkdir(parents=True, exist_ok=True)
        self.max_resident = max_resident
        self.idle_ttl = idle_ttl
        self._tenants: dict[str, TenantState] = {}
        self._last_touch: dict[str, float] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _tenant_root(self, name: str) -> Path:
        return self.tenants_dir / name

    def _journal_path(self, name: str) -> Path:
        return self._tenant_root(name) / "budget.journal"

    def _load_tenant(self, name: str) -> TenantState:
        """Rebuild one tenant from its directory (meta + journal + snapshots)."""
        root = self._tenant_root(name)
        meta_path = root / "meta.json"
        try:
            meta = json.loads(meta_path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise BadRequestError(
                f"tenant directory {root} has unreadable meta.json: {exc}"
            ) from None
        total = float(meta["total_epsilon"])
        journal = self._journal_path(name)
        if journal.exists() and journal.stat().st_size > 0:
            budget = PrivacyBudget.restore(journal)
        else:
            budget = PrivacyBudget(total, journal_path=journal)
        tenant = TenantState(name, root, budget)
        tenant.load_snapshots()
        return tenant

    def restore_all(self) -> int:
        """Load every tenant directory present on disk; returns the count."""
        count = 0
        with self._lock:
            for path in sorted(self.tenants_dir.iterdir()):
                if not path.is_dir() or not (path / "meta.json").exists():
                    continue
                name = path.name
                if name in self._tenants:
                    continue
                self._tenants[name] = self._load_tenant(name)
                self._last_touch[name] = time.monotonic()
                count += 1
            self._evict_locked()
        if count:
            active_recorder().counter("serve.tenants_restored", count)
        return count

    # ------------------------------------------------------------------
    def create(self, name: str, total_epsilon: float) -> TenantState:
        """Create a new tenant with a fresh durable budget.

        ``meta.json`` is published atomically *after* the journal's open
        record is durable, so a crash mid-create leaves at worst a
        directory without meta — invisible to :meth:`restore_all` and
        safely re-creatable.
        """
        with self._lock:
            if name in self._tenants:
                raise TenantExistsError(f"tenant {name!r} already exists", tenant=name)
            root = self._tenant_root(name)
            meta_path = root / "meta.json"
            if meta_path.exists():
                # On-disk but not loaded: a restart raced tenant creation.
                self._tenants[name] = self._load_tenant(name)
                raise TenantExistsError(f"tenant {name!r} already exists", tenant=name)
            root.mkdir(parents=True, exist_ok=True)
            budget = PrivacyBudget(total_epsilon, journal_path=self._journal_path(name))
            meta = {
                "v": _META_VERSION,
                "tenant": name,
                "total_epsilon": float(total_epsilon),
            }
            _atomic_write(meta_path, json.dumps(meta, sort_keys=True).encode())
            tenant = TenantState(name, root, budget)
            self._tenants[name] = tenant
            self._last_touch[name] = time.monotonic()
            self._evict_locked(protect=name)
        active_recorder().counter("serve.tenants_created")
        return tenant

    def get(self, name: str) -> TenantState:
        """Look up a resident tenant, reloading it from disk if evicted."""
        with self._lock:
            return self._checkout_locked(name, lease=False)

    def _checkout_locked(self, name: str, lease: bool) -> TenantState:
        tenant = self._tenants.get(name)
        if tenant is None:
            # Transparent reload: an evicted (or pre-restart) tenant whose
            # directory exists comes back as if it had never left memory.
            root = self._tenant_root(name)
            if not (root / "meta.json").exists():
                raise UnknownTenantError(f"no tenant named {name!r}", tenant=name)
            tenant = self._load_tenant(name)
            self._tenants[name] = tenant
            active_recorder().counter("serve.tenant_reloads")
        self._last_touch[name] = time.monotonic()
        if lease:
            tenant._inflight += 1
        # A reload can overflow the resident cap; rebalance immediately
        # (the tenant being handed out is explicitly protected).
        self._evict_locked(protect=name)
        return tenant

    @contextmanager
    def lease(self, name: str):
        """Check a tenant out for the duration of one request.

        A leased tenant is pinned resident: the evictor skips it, so the
        caller may safely use ``tenant.budget`` and ``tenant.locked()``
        for the lease's whole extent without racing an eviction's journal
        close.  This is the handler-facing accessor; :meth:`get` remains
        for point lookups that do not outlive the registry lock's scope.
        """
        with self._lock:
            tenant = self._checkout_locked(name, lease=True)
        try:
            yield tenant
        finally:
            with self._lock:
                tenant._inflight -= 1

    # ------------------------------------------------------------------
    # Eviction (call under the registry lock)
    # ------------------------------------------------------------------
    def _evict_one_locked(self, name: str) -> bool:
        """Snapshot, close and drop one tenant; False when busy or IO-stuck."""
        tenant = self._tenants[name]
        if tenant._inflight > 0:
            return False
        # Non-blocking probe: a held lock means an active writer (or the
        # snapshot thread); never tear a tenant down mid-mutation.
        if not tenant._lock.acquire(blocking=False):
            return False
        try:
            try:
                written = tenant._snapshot_locked(force=True)
            except (TransientIOError, OSError):
                # Keep it resident; dirtiness is preserved and the next
                # cycle retries — losing rows to save memory is never a
                # valid trade.
                active_recorder().counter("serve.snapshot_failures")
                return False
            tenant._evicted = True
        finally:
            tenant._lock.release()
        if written:
            active_recorder().counter("serve.snapshot_writes", written)
        tenant.budget.close()
        del self._tenants[name]
        self._last_touch.pop(name, None)
        return True

    def _evict_locked(self, protect: str | None = None) -> int:
        """Apply the idle-TTL then the LRU cap; returns tenants evicted.

        ``protect`` names a tenant mid-checkout that must stay resident
        regardless of pressure.
        """
        if self.idle_ttl is None and self.max_resident is None:
            return 0
        evicted = 0
        now = time.monotonic()
        if self.idle_ttl is not None:
            for name in list(self._tenants):
                if name == protect:
                    continue
                touched = self._last_touch.get(name, now)
                if now - touched >= self.idle_ttl:
                    evicted += self._evict_one_locked(name)
        if self.max_resident is not None:
            for name in sorted(
                self._tenants, key=lambda n: self._last_touch.get(n, 0.0)
            ):
                if len(self._tenants) <= self.max_resident:
                    break
                if name == protect:
                    continue
                evicted += self._evict_one_locked(name)
        if evicted:
            active_recorder().counter("serve.tenant_evictions", evicted)
        return evicted

    def evict_idle(self) -> int:
        """One eviction cycle (the periodic snapshot loop's other half)."""
        with self._lock:
            return self._evict_locked()

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._tenants)

    def snapshot_all(self, force: bool = False) -> int:
        """Snapshot every tenant; returns containers written.

        Per-tenant IO failures are contained: one tenant's persistent
        disk trouble must not stop the others' snapshots (its
        accumulators stay dirty and retry next cycle).
        """
        written = 0
        for name in self.names():
            try:
                tenant = self.get(name)
            except UnknownTenantError:  # pragma: no cover - removed mid-loop
                continue
            try:
                written += tenant.snapshot(force=force)
            except (TransientIOError, OSError):
                active_recorder().counter("serve.snapshot_failures")
        return written

    def close(self) -> None:
        """Release every tenant's journal handle (files stay)."""
        with self._lock:
            tenants = list(self._tenants.values())
            self._tenants.clear()
            self._last_touch.clear()
        for tenant in tenants:
            try:
                tenant.close()
            except Exception:  # closing must never mask the caller's exit
                pass
