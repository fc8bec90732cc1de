"""Pluggable executors for per-cell work and whole batched tiles.

DPME, FP and the other synthetic-data baselines cannot be expressed as
stacked tensor solves — each fit is its own pipeline of histogram building,
noisy sampling and iterative optimization.  The runtime therefore runs them
per cell through an executor.  Since the tiled runtime
(:class:`~repro.runtime.plan.TiledPlan`), the same executors also dispatch
**whole batched tiles**: the work item is then a tile index, the work
function materializes that tile's prepared arrays and runs its stacked
kernels, and only the lightweight per-cell score/time lists travel back.

``SerialExecutor``
    The reference: items run in submission order on the calling thread.
``ThreadExecutor``
    A thread pool.  NumPy releases the GIL inside BLAS/LAPACK and the
    random generators are derived per cell (never shared), so cells are
    data-race free and results are position-assigned — output order is
    deterministic regardless of completion order.
``ProcessExecutor``
    A ``fork``-context process pool sharing the parent's arrays read-only
    through copy-on-write memory: workers inherit the parent's address
    space, so neither the plan's fold views (per-cell dispatch) nor the
    raw dataset a tile materializes from (tile dispatch) are ever pickled
    or copied.  For tile dispatch this is what bounds the parent's peak
    memory: each forked worker materializes *its own* tile from the
    COW-shared dataset and returns only scores, so at most
    ``min(n_tiles, max_workers)`` tiles are resident machine-wide and the
    parent holds none.  On platforms without ``fork`` the executor
    degrades to serial execution.

Executors supply all of the runtime's parallelism: inside
:func:`~repro.runtime.run_plan` BLAS runs single-threaded
(:mod:`~repro.runtime.blas`), and process pools forked there inherit that
one thread.

Pooled (session-held) variants
------------------------------
``ThreadExecutor`` and ``ProcessExecutor`` build a fresh pool inside every
``map`` call — the right lifecycle for one-shot runs, and (for processes)
the prerequisite of the COW trick above, which can only share state that
existed *before* the fork.  A long-lived :class:`repro.session.Session`
instead wants one pool reused across many calls, so this module also ships

``PooledThreadExecutor``
    A lazily created, persistent thread pool, reused by every ``map``
    until :meth:`~PooledThreadExecutor.close`.
``PooledProcessExecutor``
    A lazily created, persistent ``fork``-context process pool.  Because
    its workers outlive any single call, work **cannot** reach them by
    fork-time inheritance — each ``map`` pickles the work callable (and
    its payload) instead.  The runner's work objects are picklable by
    design (module-level callables over picklable plans); the trade is
    per-call serialization instead of per-call pool spin-up, which wins
    whenever calls are frequent relative to their payload size (the
    serving workload Sessions exist for) and is measured by
    ``benchmarks/bench_harness_scaling.py``.

Both pooled executors are context managers and idempotently ``close()``-
able; a closed executor transparently re-creates its pool on next use.

Determinism contract: executors only change *where* an item runs.  Each
cell's RNG substream is derived from its (seed, tag) key, results are
assigned by input position (``map`` output order == input order, which is
what makes the runner's tile-ordered reduction deterministic), and pickled
numpy arrays round-trip bit-exactly, so scores are bitwise identical
across executors, worker counts, and pool lifecycles.

Telemetry (:mod:`repro.obs`): thread and serial execution records into the
session's recorder directly — it is thread-safe and shared by address
space.  Process workers cannot (they mutate a forked or pickled copy), so
when a recording recorder is active the process executors wrap the work in
:class:`_TelemetryWork`: each worker-side call runs under a fresh recorder
and ships ``(result, payload)`` home, and the parent merges the payloads
**in input order** — deterministic regardless of completion order, and
double-count-free because the wrapper swaps the worker's active recorder.
Merging happens outside the timed kernels and never touches results, so
the bitwise contract above is unaffected.

Self-healing (:mod:`repro.faults`): both process executors run under a
:class:`~repro.faults.RetryPolicy`.  On the default fault-free path the
only change from the historical executors is that a
``BrokenProcessPool`` no longer kills the whole map: the completed
prefix is kept, the pool is rebuilt (bounded exponential backoff,
``max_retries`` rounds), and only the unfinished items re-run — which is
bitwise-safe because every cell's substream is keyed by ``(seed, tag)``,
never by where or when it executes.  When a fault injector is active or
a ``tile_timeout`` is set, maps route through a per-item submit path
that can additionally detect hung workers (kill + rebuild + retry) and
checksum-verify pickled result envelopes (corrupt payloads retry like
crashes).  Exhausted retries raise
:class:`~repro.exceptions.ExecutorBrokenError` carrying the completed
prefix, which the runner can turn into a thread/serial fallback.  Every
crash, timeout, rebuild, retry and corruption is counted on the active
recorder under ``executor.*``.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import itertools
import multiprocessing
import os
import pickle
import time
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Sequence

from ..exceptions import ExecutorBrokenError, ExperimentError
from ..faults import FaultInjector, FaultPlan, RetryPolicy, active_injector
from ..obs import active_recorder, make_recorder, use_recorder

__all__ = [
    "CellExecutor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "PooledThreadExecutor",
    "PooledProcessExecutor",
    "get_executor",
]


class CellExecutor:
    """Interface: run ``work(item)`` for every item, results in input order."""

    name: str = "abstract"

    def map(self, work: Callable, items: Sequence) -> list:
        """Execute ``work`` over ``items``; result ``i`` is ``work(items[i])``."""
        raise NotImplementedError


class _TelemetryWork:
    """Process-worker shim: run one item under a fresh recorder, ship it home.

    Picklable (plain attributes over a picklable work callable), so it
    crosses into pooled workers by pickle and into forked workers by
    inheritance.  Each call returns ``(result, payload)``; the parent
    unwraps via :func:`_merge_worker_results`.  Installing a fresh
    recorder per call is what keeps worker activity out of the (forked
    copy of the) parent recorder — nothing is counted twice.
    """

    __slots__ = ("work", "mode")

    def __init__(self, work: Callable, mode: str) -> None:
        self.work = work
        self.mode = mode

    def __call__(self, item):
        recorder = make_recorder(self.mode)
        with use_recorder(recorder):
            result = self.work(item)
        return result, recorder.export()


def _merge_worker_results(wrapped_results: list, recorder) -> list:
    """Merge worker payloads into ``recorder`` (input order); unwrap results."""
    results = []
    for result, payload in wrapped_results:
        recorder.merge(payload)
        results.append(result)
    return results


# ----------------------------------------------------------------------
# Fault-injection plumbing (worker side)
# ----------------------------------------------------------------------
#: Exit status of an injected worker crash — ``os._exit``, so no Python
#: cleanup runs: from the parent's view the child died mid-item, which is
#: exactly the failure a production pool worker exhibits under OOM kills.
_CRASH_EXIT = 43

#: Marker heading a checksummed result envelope (submit path under an
#: active injector); collision with real results is not a concern — no
#: work item returns a 3-tuple led by this string.
_SEALED = "__repro_sealed__"


class _CorruptPayloadError(Exception):
    """Parent-side: a result envelope failed its checksum (retryable)."""


def _seal(result, injector: FaultInjector, index: int, attempt: int):
    """Wrap a worker result in a checksummed envelope (maybe corrupting it)."""
    blob = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
    digest = hashlib.sha256(blob).hexdigest()
    if injector.decide("payload.corrupt", index, attempt):
        blob = injector.corrupt_bytes(blob, "payload.corrupt", index)
    return (_SEALED, digest, blob)


def _maybe_unseal(result):
    """Verify + unwrap an envelope; raw (non-enveloped) results pass through."""
    if isinstance(result, tuple) and len(result) == 3 and result[0] == _SEALED:
        _, digest, blob = result
        if hashlib.sha256(blob).hexdigest() != digest:
            raise _CorruptPayloadError
        return pickle.loads(blob)
    return result


def _apply_faults(work: Callable, item, injector: FaultInjector, index: int, attempt: int):
    """Run one item under the executor fault sites (worker side)."""
    if injector.decide("worker.crash", index, attempt):
        os._exit(_CRASH_EXIT)
    if injector.decide("tile.hang", index, attempt):
        time.sleep(injector.plan.hang_seconds)
    return _seal(work(item), injector, index, attempt)


#: Injectors rebuilt from plan text inside pooled workers, cached by text
#: (decisions are stateless, so sharing one per plan is safe).
_INJECTOR_CACHE: dict[str, FaultInjector] = {}


def _injector_for(plan_text: str) -> FaultInjector:
    injector = _INJECTOR_CACHE.get(plan_text)
    if injector is None:
        injector = _INJECTOR_CACHE[plan_text] = FaultInjector(FaultPlan.parse(plan_text))
    return injector


def _pooled_cell_faulted(work: Callable, plan_text: str, item, index: int, attempt: int):
    """Submit-path work unit for pickled-work pools: faults around one item."""
    injector = _injector_for(plan_text)
    if not injector.executor_faults_active:
        return work(item)
    return _apply_faults(work, item, injector, index, attempt)


def _terminate_workers(pool) -> None:
    """Kill a pool's worker processes (a hung worker cannot be joined).

    ``_processes`` is private to ``ProcessPoolExecutor`` but has been its
    worker registry since 3.2; guarded access keeps this a no-op if the
    attribute ever moves (the subsequent unwaited shutdown still abandons
    the pool).
    """
    for process in list(getattr(pool, "_processes", {}).values()):
        if process.is_alive():
            process.terminate()


def _resilient_collect(
    n_items: int,
    ensure_pool: Callable,
    discard_pool: Callable,
    submit: Callable,
    retry: RetryPolicy,
    recorder,
) -> list:
    """The per-item submit loop both process executors recover through.

    Each round submits every unfinished item (with its attempt count) and
    collects results in input order.  Crashes (``BrokenProcessPool``),
    hangs (``tile_timeout`` exceeded) and corrupt result envelopes mark
    their items failed and — for the first two — condemn the pool, which
    ``discard_pool`` tears down (killing workers when one is hung) so the
    next round starts on a fresh fork.  Genuine exceptions raised *by the
    work* propagate immediately: a deterministic bug would fail every
    retry identically, and masking it as an executor failure would turn
    a wrong answer into a slow wrong answer.

    ``retry.max_retries`` bounds consecutive rounds that complete zero
    items; a round with any progress keeps the loop alive, so a pool
    that crashes repeatedly while still advancing is drained rather than
    abandoned.  Exhaustion raises
    :class:`~repro.exceptions.ExecutorBrokenError` with the completed
    prefix and pending positions, letting callers resume elsewhere.
    """
    results: list = [None] * n_items
    done = [False] * n_items
    attempts = [0] * n_items
    wasted_rounds = 0
    while not all(done):
        pending = [i for i in range(n_items) if not done[i]]
        pool = ensure_pool()
        futures: dict = {}
        broke = False
        try:
            for i in pending:
                futures[i] = submit(pool, i, attempts[i])
        except BrokenProcessPool:
            # A fast crash can poison the pool while this round is still
            # being submitted, making submit() itself raise.  Items that
            # never got a future fail the round; the submitted ones are
            # harvested below like any other broken-pool round.
            recorder.counter("executor.worker_crashes")
            broke = True
        completed_this_round = 0
        failed: list[int] = [i for i in pending if i not in futures]
        hung = False
        for i in pending:
            future = futures.get(i)
            if future is None:
                continue
            if broke:
                # The pool is condemned; harvest items that finished
                # before the break without blocking on the rest.
                if not future.done():
                    failed.append(i)
                    continue
            try:
                timeout = None if broke else retry.tile_timeout
                results[i] = _maybe_unseal(future.result(timeout=timeout))
                done[i] = True
                completed_this_round += 1
            except concurrent.futures.TimeoutError:
                recorder.counter("executor.timeouts")
                failed.append(i)
                hung = True
            except _CorruptPayloadError:
                recorder.counter("executor.payload_corruptions")
                failed.append(i)
            except BrokenProcessPool:
                recorder.counter("executor.worker_crashes")
                failed.append(i)
                broke = True
        if broke or hung:
            discard_pool(kill=hung)
            recorder.counter("executor.pool_rebuilds")
        if not failed:
            continue
        for i in failed:
            attempts[i] += 1
        if completed_this_round == 0:
            wasted_rounds += 1
            if wasted_rounds > retry.max_retries:
                raise ExecutorBrokenError(
                    "hung worker" if hung else "worker crash or corrupt result",
                    completed={i: results[i] for i in range(n_items) if done[i]},
                    pending=tuple(i for i in range(n_items) if not done[i]),
                    failure_mode=retry.failure_mode,
                )
        recorder.counter("executor.retries", len(failed))
        with recorder.span("executor.retry", pending=len(failed)):
            time.sleep(retry.delay(max(0, wasted_rounds - 1)))
    return results


class SerialExecutor(CellExecutor):
    """Run every item on the calling thread (the reference executor).

    For tile dispatch this is also the minimal-memory schedule: tiles
    materialize strictly one at a time.
    """

    name = "serial"

    def map(self, work: Callable, items: Sequence) -> list:
        return [work(item) for item in items]


class ThreadExecutor(CellExecutor):
    """Run items on a thread pool (single-threaded BLAS releases the GIL).

    Tile dispatch note: concurrent tiles may consult a shared
    :class:`~repro.runtime.plan.PreparedDataCache`; its entries are
    idempotent (a racing rebuild stores the identical value), so the race
    is benign and scores stay deterministic.
    """

    name = "thread"

    def __init__(self, max_workers: int | None = None) -> None:
        self.max_workers = max_workers or min(8, os.cpu_count() or 1)

    def map(self, work: Callable, items: Sequence) -> list:
        if len(items) <= 1:
            return [work(item) for item in items]
        with concurrent.futures.ThreadPoolExecutor(self.max_workers) as pool:
            return list(pool.map(work, items))


#: Work registered for copy-on-write sharing with forked workers, keyed by
#: a monotonically increasing token (never recycled, unlike ``id`` — two
#: overlapping maps can therefore never alias each other's work).
#: Populated by ProcessExecutor *before* the fork so the children inherit
#: the callable and its captured arrays without pickling them.
_SHARED_WORK: dict[int, tuple[Callable, Sequence]] = {}
_SHARED_TOKENS = itertools.count()


def _forked_cell(token_and_index: tuple[int, int]):
    token, index = token_and_index
    work, items = _SHARED_WORK[token]
    return work(items[index])


def _forked_cell_faulted(payload: tuple[int, int, int]):
    """Submit-path work unit for forked pools: faults around one item.

    The injector reaches the child by fork-time inheritance of the
    active-injector slot (pools are built inside the session's
    ``use_injector`` scope), so only ``(token, index, attempt)`` crosses
    the process boundary — the COW contract is unchanged.
    """
    token, index, attempt = payload
    work, items = _SHARED_WORK[token]
    injector = active_injector()
    if not injector.executor_faults_active:
        return work(items[index])
    return _apply_faults(work, items[index], injector, index, attempt)


class ProcessExecutor(CellExecutor):
    """Run items on a forked process pool with shared read-only views.

    Only the ``(token, index)`` pairs and each item's **result** cross the
    process boundary; the work callable and anything it closes over (fold
    views, a :class:`~repro.runtime.plan.TiledPlan` and its dataset) stay
    in the parent's address space and reach workers via copy-on-write.
    Results must therefore be kept lightweight — the tiled runner returns
    score/time lists, never prepared arrays.

    Self-healing: a ``BrokenProcessPool`` keeps the completed prefix,
    rebuilds the pool and re-runs only unfinished items, bounded by
    ``retry.max_retries`` (0 restores fail-fast).  With an active fault
    injector or a ``tile_timeout``, items run through the per-item
    submit path (hang detection + envelope checksums) instead of the
    chunk-free fast path.
    """

    name = "process"

    def __init__(
        self, max_workers: int | None = None, retry: RetryPolicy | None = None
    ) -> None:
        self.max_workers = max_workers or min(8, os.cpu_count() or 1)
        self.retry = retry if retry is not None else RetryPolicy()

    def map(self, work: Callable, items: Sequence) -> list:
        if len(items) <= 1:
            return [work(item) for item in items]
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            return SerialExecutor().map(work, items)
        recorder = active_recorder()
        if recorder.recording:
            work = _TelemetryWork(work, recorder.mode)
        injector = active_injector()
        token = next(_SHARED_TOKENS)
        # The token must stay registered until every retry round is done
        # (rebuilt pools fork afresh and re-inherit the registry), and must
        # be released no matter how the map ends — including a work item
        # raising — or the registry grows once per failed map.
        _SHARED_WORK[token] = (work, items)
        try:
            if injector.executor_faults_active or self.retry.tile_timeout is not None:
                results = self._map_submit(context, token, len(items), recorder)
            else:
                results = self._map_fast(context, token, len(items), recorder)
        finally:
            del _SHARED_WORK[token]
        if recorder.recording:
            results = _merge_worker_results(results, recorder)
        return results

    def _map_fast(self, context, token: int, n_items: int, recorder) -> list:
        """The fault-free path: plain ``pool.map`` plus rebuild-and-resume."""
        results: list = [None] * n_items
        start = 0
        rebuilds = 0
        while start < n_items:
            pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.max_workers, mp_context=context
            )
            yielded = 0
            clean = False
            try:
                payloads = [(token, i) for i in range(start, n_items)]
                for result in pool.map(_forked_cell, payloads):
                    results[start + yielded] = result
                    yielded += 1
                clean = True
                start = n_items
            except BrokenProcessPool:
                # Results stream in input order, so the yielded prefix is
                # complete; everything after re-runs on a fresh pool
                # (bitwise-safe: substreams are keyed, not positional).
                start += yielded
                recorder.counter("executor.worker_crashes")
                recorder.counter("executor.pool_rebuilds")
                if rebuilds >= self.retry.max_retries:
                    raise ExecutorBrokenError(
                        "process pool broke",
                        completed={i: results[i] for i in range(start)},
                        pending=tuple(range(start, n_items)),
                        failure_mode=self.retry.failure_mode,
                    ) from None
                recorder.counter("executor.retries")
                with recorder.span("executor.retry", pending=n_items - start):
                    time.sleep(self.retry.delay(rebuilds))
                rebuilds += 1
            finally:
                pool.shutdown(wait=clean, cancel_futures=not clean)
        return results

    def _map_submit(self, context, token: int, n_items: int, recorder) -> list:
        """The chaos path: per-item futures with timeout + envelope checks."""
        live: dict = {"pool": None}

        def ensure_pool():
            if live["pool"] is None:
                live["pool"] = concurrent.futures.ProcessPoolExecutor(
                    max_workers=self.max_workers, mp_context=context
                )
            return live["pool"]

        def discard_pool(kill: bool) -> None:
            pool, live["pool"] = live["pool"], None
            if pool is None:
                return
            if kill:
                _terminate_workers(pool)
            pool.shutdown(wait=False, cancel_futures=True)

        def submit(pool, index: int, attempt: int):
            return pool.submit(_forked_cell_faulted, (token, index, attempt))

        try:
            return _resilient_collect(
                n_items, ensure_pool, discard_pool, submit, self.retry, recorder
            )
        finally:
            discard_pool(kill=False)


class PooledThreadExecutor(CellExecutor):
    """A persistent thread pool reused across ``map`` calls.

    Functionally identical to :class:`ThreadExecutor` (threads share the
    parent's memory, so nothing about the work changes); the only
    difference is pool lifecycle — created lazily on first use, reused
    until :meth:`close`, re-created transparently after.
    """

    name = "pooled-thread"

    def __init__(self, max_workers: int | None = None) -> None:
        self.max_workers = max_workers or min(8, os.cpu_count() or 1)
        self._pool: concurrent.futures.ThreadPoolExecutor | None = None

    @property
    def pool(self):
        """The live pool, or ``None`` before first use / after close."""
        return self._pool

    def _ensure_pool(self) -> concurrent.futures.ThreadPoolExecutor:
        if self._pool is None:
            self._pool = concurrent.futures.ThreadPoolExecutor(self.max_workers)
        return self._pool

    def map(self, work: Callable, items: Sequence) -> list:
        if len(items) <= 1:
            return [work(item) for item in items]
        had_pool = self._pool is not None
        pool = self._ensure_pool()
        recorder = active_recorder()
        recorder.counter("pool.reused" if had_pool else "pool.created")
        return list(pool.map(work, items))

    def close(self) -> None:
        """Shut the pool down; the next ``map`` builds a fresh one.

        The pool reference is dropped *before* shutdown, so a failure
        mid-teardown can never leave a half-dead pool attached to the
        executor — the worst case is unreaped threads, never a reused
        broken pool.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        try:
            pool.shutdown()
        except Exception:
            pool.shutdown(wait=False, cancel_futures=True)

    def __enter__(self) -> "PooledThreadExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class PooledProcessExecutor(CellExecutor):
    """A persistent ``fork``-context process pool reused across ``map`` calls.

    Work reaches the long-lived workers **by pickle** — the COW trick of
    :class:`ProcessExecutor` only shares state that existed before the
    fork, and a reusable pool forks once.  Work callables must therefore
    be picklable (the runner's are); chunking pickles each callable about
    ``max_workers`` times per call rather than once per item.  Results are
    still position-assigned (``map`` output order == input order), and
    numpy arrays survive pickling bit-exactly, so scores are bitwise
    identical to every other executor.

    On platforms without ``fork`` the executor degrades to serial
    execution, like its one-shot sibling.

    Self-healing mirrors :class:`ProcessExecutor`: a dead worker no
    longer poisons the call — the carcass is dropped, a fresh pool forks,
    and only unfinished items re-run (bounded by ``retry.max_retries``;
    0 restores the historical drop-and-raise).  Chaos and timeout maps
    route through the per-item submit path, where work reaches workers
    as pickled ``(work, plan_text, item, index, attempt)`` submissions
    and results come home in checksummed envelopes.
    """

    name = "pooled-process"

    def __init__(
        self, max_workers: int | None = None, retry: RetryPolicy | None = None
    ) -> None:
        self.max_workers = max_workers or min(8, os.cpu_count() or 1)
        self.retry = retry if retry is not None else RetryPolicy()
        self._pool: concurrent.futures.ProcessPoolExecutor | None = None

    @property
    def pool(self):
        """The live pool, or ``None`` before first use / after close."""
        return self._pool

    def _ensure_pool(self) -> concurrent.futures.ProcessPoolExecutor:
        if self._pool is None:
            context = multiprocessing.get_context("fork")
            self._pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.max_workers, mp_context=context
            )
        return self._pool

    def map(self, work: Callable, items: Sequence) -> list:
        if len(items) <= 1:
            return [work(item) for item in items]
        had_pool = self._pool is not None
        try:
            self._ensure_pool()
        except ValueError:  # pragma: no cover - non-POSIX platforms
            return SerialExecutor().map(work, items)
        recorder = active_recorder()
        if recorder.recording:
            recorder.counter("pool.reused" if had_pool else "pool.created")
            work = _TelemetryWork(work, recorder.mode)
            nbytes = len(pickle.dumps(work))
            recorder.counter("process.pickled_bytes", nbytes)
            recorder.gauge("process.pickled_bytes_per_call", nbytes)
        injector = active_injector()
        if injector.executor_faults_active or self.retry.tile_timeout is not None:
            results = self._map_submit(work, items, injector, recorder)
        else:
            results = self._map_fast(work, items, recorder)
        if recorder.recording:
            results = _merge_worker_results(results, recorder)
        return results

    def _map_fast(self, work: Callable, items: Sequence, recorder) -> list:
        """The fault-free path: chunked ``pool.map`` plus rebuild-and-resume."""
        n_items = len(items)
        results: list = [None] * n_items
        start = 0
        rebuilds = 0
        while start < n_items:
            pool = self._ensure_pool()
            chunksize = -(-(n_items - start) // self.max_workers)
            yielded = 0
            try:
                for result in pool.map(work, items[start:], chunksize=chunksize):
                    results[start + yielded] = result
                    yielded += 1
                start = n_items
            except BrokenProcessPool:
                # A dead worker poisons the whole persistent pool.  Keep
                # the in-order completed prefix, drop the carcass, fork a
                # fresh pool and resume from the first unfinished item.
                start += yielded
                self.close()
                recorder.counter("executor.worker_crashes")
                recorder.counter("executor.pool_rebuilds")
                if rebuilds >= self.retry.max_retries:
                    raise ExecutorBrokenError(
                        "persistent process pool broke",
                        completed={i: results[i] for i in range(start)},
                        pending=tuple(range(start, n_items)),
                        failure_mode=self.retry.failure_mode,
                    ) from None
                recorder.counter("executor.retries")
                with recorder.span("executor.retry", pending=n_items - start):
                    time.sleep(self.retry.delay(rebuilds))
                rebuilds += 1
        return results

    def _map_submit(
        self, work: Callable, items: Sequence, injector: FaultInjector, recorder
    ) -> list:
        """The chaos path: per-item pickled submissions with fault hooks."""
        plan_text = injector.describe()

        def ensure_pool():
            return self._ensure_pool()

        def discard_pool(kill: bool) -> None:
            pool, self._pool = self._pool, None
            if pool is None:
                return
            if kill:
                _terminate_workers(pool)
            pool.shutdown(wait=False, cancel_futures=True)

        def submit(pool, index: int, attempt: int):
            return pool.submit(
                _pooled_cell_faulted, work, plan_text, items[index], index, attempt
            )

        return _resilient_collect(
            len(items), ensure_pool, discard_pool, submit, self.retry, recorder
        )

    def close(self) -> None:
        """Shut the pool down; the next ``map`` builds a fresh one.

        Defensive against a *broken* pool (the state a long-lived session
        closes from after :class:`~repro.exceptions.ExecutorBrokenError`):
        the reference is dropped before shutdown so failure mid-teardown
        cannot leave a half-dead pool attached, and if shutdown raises,
        surviving workers are terminated outright rather than leaked.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        try:
            pool.shutdown()
        except Exception:
            _terminate_workers(pool)
            try:
                pool.shutdown(wait=False, cancel_futures=True)
            except Exception:  # pragma: no cover - teardown must not raise
                pass

    def __enter__(self) -> "PooledProcessExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


_EXECUTORS = {
    "serial": SerialExecutor,
    "thread": ThreadExecutor,
    "process": ProcessExecutor,
}


def get_executor(executor: str | CellExecutor) -> CellExecutor:
    """Resolve an executor by name (``serial|thread|process``) or pass through."""
    if isinstance(executor, CellExecutor):
        return executor
    try:
        return _EXECUTORS[executor]()
    except KeyError:
        raise ExperimentError(
            f"unknown executor {executor!r}; expected one of {sorted(_EXECUTORS)}"
        ) from None
