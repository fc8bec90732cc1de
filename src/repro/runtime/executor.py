"""Pluggable executors for the runtime's work units: folds and batched tiles.

DPME, FP and the other synthetic-data baselines cannot be expressed as
stacked tensor solves — each fit is its own pipeline of histogram building,
noisy sampling and iterative optimization.  The runtime therefore runs them
per cell through an executor.  The same executors also dispatch the
batched kernels of a :class:`~repro.runtime.plan.TiledPlan` tile: the work
function materializes that tile's prepared arrays and runs its stacked
kernels (or one generic fold), and only the lightweight per-cell
score/time lists travel back.

Three executors, one per kind name of :func:`make_executor`:

``SerialExecutor`` (``"serial"``)
    The reference: items run in submission order on the calling thread.
``PooledThreadExecutor`` (``"thread"``)
    A lazily created thread pool, reused by every ``map`` until
    :meth:`~CellExecutor.close`.  NumPy releases the GIL inside
    BLAS/LAPACK and the random generators are derived per cell (never
    shared), so cells are data-race free and results are position-assigned.
``PooledProcessExecutor`` (``"process"``)
    A lazily created ``fork``-context process pool, reused the same way.
    Each ``map`` pickles the work callable (and its payload) **once**, into
    a private temp file (shared memory when available) that is removed when
    the map ends; every item is then submitted on its own as
    ``(path, key, item)``, and a worker loads the work the first time it
    sees the map's key and keeps it resident for the rest of the map.
    Items are dispatched one at a time in input order, so a caller that
    orders its items by expected cost gets largest-first scheduling.  On
    platforms without ``fork`` it degrades to serial execution.

Every executor runs a map of at most one item inline, on the calling
thread.  Executors are context managers; ``close()`` is idempotent, and a
closed executor re-creates its pool on next use.  Executors supply all of
the runtime's parallelism: inside :func:`~repro.runtime.run_plan` BLAS
runs single-threaded (:mod:`~repro.runtime.blas`), and process pools
forked there inherit that one thread.

Determinism contract: executors only change *where* an item runs.  Each
cell's RNG substream is derived from its (seed, tag) key, results are
assigned by input position (``map`` output order == input order, which is
what makes the runner's tile-ordered reduction deterministic), and pickled
numpy arrays round-trip bit-exactly, so scores are bitwise identical
across executors, worker counts, and pool lifecycles.

Telemetry (:mod:`repro.obs`): thread and serial execution records into the
session's recorder directly — it is thread-safe and shared by address
space.  Process workers cannot (they mutate a pickled copy), so when a
recording recorder is active the process executor wraps the work in
:class:`_TelemetryWork`: each worker-side call runs under a fresh recorder
and ships ``(result, payload)`` home, and the parent merges the payloads
**in input order** — deterministic regardless of completion order, and
double-count-free because the wrapper swaps the worker's active recorder.
Merging happens outside the timed kernels and never touches results, so
the bitwise contract above is unaffected.

Self-healing (:mod:`repro.faults`): the process executor runs under a
:class:`~repro.faults.RetryPolicy`.  A ``BrokenProcessPool`` never kills
the whole map: completed items are kept, the pool is rebuilt (bounded
exponential backoff, ``max_retries`` unproductive rounds), and only the
unfinished items re-run — which is bitwise-safe because every cell's
substream is keyed by ``(seed, tag)``, never by where or when it
executes.  Per-item collection also detects hung workers (``tile_timeout``
exceeded: kill + rebuild + retry), and with an active fault injector
results come home in checksummed envelopes (corrupt payloads retry like
crashes).  Exhausted retries raise
:class:`~repro.exceptions.ExecutorBrokenError` carrying the completed
items, which the runner can turn into a thread/serial fallback.  Every
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
import tempfile
import time
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Sequence

from ..exceptions import ExecutorBrokenError, ExperimentError
from ..faults import FaultInjector, FaultPlan, RetryPolicy, active_injector
from ..obs import active_recorder, make_recorder, use_recorder

__all__ = [
    "CellExecutor",
    "SerialExecutor",
    "PooledThreadExecutor",
    "PooledProcessExecutor",
    "EXECUTOR_KINDS",
    "make_executor",
    "get_executor",
]


class CellExecutor:
    """Interface: run ``work(item)`` for every item, results in input order."""

    name: str = "abstract"

    def map(self, work: Callable, items: Sequence) -> list:
        """Execute ``work`` over ``items``; result ``i`` is ``work(items[i])``."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any held pool (a no-op for executors that hold none)."""

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class _TelemetryWork:
    """Process-worker shim: run one item under a fresh recorder, ship it home.

    Picklable (plain attributes over a picklable work callable).  Each call
    returns ``(result, payload)``; the parent unwraps via
    :func:`_merge_worker_results`.  Installing a fresh recorder per call is
    what keeps worker activity out of the worker's copy of the parent
    recorder — nothing is counted twice.
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


#: Injectors rebuilt from plan text inside pooled workers, cached by text
#: (decisions are stateless, so sharing one per plan is safe).
_INJECTOR_CACHE: dict[str, FaultInjector] = {}


def _injector_for(plan_text: str) -> FaultInjector:
    injector = _INJECTOR_CACHE.get(plan_text)
    if injector is None:
        injector = _INJECTOR_CACHE[plan_text] = FaultInjector(FaultPlan.parse(plan_text))
    return injector


#: Directory of the per-map work files: shared memory when the platform
#: has it, so shipping the work is a memory copy rather than disk I/O.
_WORK_DIR = "/dev/shm" if os.path.isdir("/dev/shm") else None
_WORK_PREFIX = "repro-work-"
_WORK_KEYS = itertools.count()

#: Worker side: ``{key: work}`` of the map this worker last served — at
#: most one entry, so a worker never holds two maps' work.  A rebuilt pool
#: forks from the parent, whose registry is always empty.
_RESIDENT: dict = {}


def _write_work(work: Callable) -> tuple[str, int]:
    """Pickle ``work`` once into a private temp file; return path and size.

    A full or missing shared-memory directory falls back to the default
    temp directory; the file never outlives a failed write.
    """
    for directory in (_WORK_DIR, None) if _WORK_DIR else (None,):
        fd, path = tempfile.mkstemp(prefix=_WORK_PREFIX, suffix=".pkl", dir=directory)
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(work, handle, protocol=pickle.HIGHEST_PROTOCOL)
                return path, handle.tell()
        except BaseException as err:
            os.unlink(path)
            if directory is None or not isinstance(err, OSError):
                raise


def _resident_call(path: str, key, item, faults):
    """Worker side: run one item, loading the map's work once per worker.

    ``faults`` is ``(plan_text, index, attempt)`` when an injector is
    active — the item then runs under the executor fault sites and its
    result comes home sealed — else ``None``.
    """
    work = _RESIDENT.get(key)
    if work is None:
        _RESIDENT.clear()  # drop the previous map's work before loading
        with open(path, "rb") as handle:
            work = pickle.load(handle)
        _RESIDENT[key] = work
    if faults is None:
        return work(item)
    plan_text, index, attempt = faults
    injector = _injector_for(plan_text)
    if injector.decide("worker.crash", index, attempt):
        os._exit(_CRASH_EXIT)
    if injector.decide("tile.hang", index, attempt):
        time.sleep(injector.plan.hang_seconds)
    return _seal(work(item), injector, index, attempt)


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


class SerialExecutor(CellExecutor):
    """Run every item on the calling thread (the reference executor).

    For tile dispatch this is also the minimal-memory schedule: tiles
    materialize strictly one at a time.
    """

    name = "serial"

    def map(self, work: Callable, items: Sequence) -> list:
        return [work(item) for item in items]


class PooledThreadExecutor(CellExecutor):
    """A persistent thread pool reused across ``map`` calls.

    Created lazily on first use, reused until :meth:`close`, re-created
    transparently after.  Tile dispatch note: concurrent tiles may consult
    a shared :class:`~repro.runtime.plan.PreparedDataCache`; its entries are
    idempotent (a racing rebuild stores the identical value), so the race
    is benign and scores stay deterministic.
    """

    name = "pooled-thread"

    def __init__(self, max_workers: int | None = None) -> None:
        self.max_workers = max_workers or min(8, os.cpu_count() or 1)
        self._pool: concurrent.futures.ThreadPoolExecutor | None = None

    @property
    def pool(self):
        """The live pool, or ``None`` before first use / after close."""
        return self._pool

    def map(self, work: Callable, items: Sequence) -> list:
        if len(items) <= 1:
            return [work(item) for item in items]
        active_recorder().counter("pool.reused" if self._pool else "pool.created")
        if self._pool is None:
            self._pool = concurrent.futures.ThreadPoolExecutor(self.max_workers)
        return list(self._pool.map(work, items))

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


class PooledProcessExecutor(CellExecutor):
    """A persistent ``fork``-context process pool reused across ``map`` calls.

    Work reaches the long-lived workers **by pickle**, so work callables
    must be picklable (the runner's are).  Each ``map`` pickles its
    callable exactly once, into a private temp file that is removed when
    the map ends; items are submitted one by one as ``(path, key, item)``,
    and each worker unpickles the work on its first item of the map and
    keeps it resident (one map's work per worker).  Results are
    position-assigned (``map`` output order == input order), and numpy
    arrays survive pickling bit-exactly, so scores are bitwise identical
    to every other executor.

    Self-healing: a dead worker never poisons the call — the carcass is
    dropped, a fresh pool forks (its workers reload the work from the
    file), and only unfinished items re-run, bounded by
    ``retry.max_retries`` (0 restores fail-fast).  Per-item collection
    also detects hung workers, and with an active fault injector the fault
    sites wrap each item and results come home in checksummed envelopes.
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

    def _discard_pool(self, kill: bool) -> None:
        """Drop a condemned pool without waiting (killing hung workers)."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        if kill:
            _terminate_workers(pool)
        pool.shutdown(wait=False, cancel_futures=True)

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
        path, nbytes = _write_work(work)
        try:
            if recorder.recording:
                recorder.counter("process.pickled_bytes", nbytes)
                recorder.gauge("process.pickled_bytes_per_call", nbytes)
            injector = active_injector()
            plan_text = injector.describe() if injector.executor_faults_active else None
            key = (os.getpid(), next(_WORK_KEYS))

            def submit(pool, index: int, attempt: int):
                faults = None if plan_text is None else (plan_text, index, attempt)
                return pool.submit(_resident_call, path, key, items[index], faults)

            results = self._collect(len(items), submit, recorder)
        finally:
            os.unlink(path)
        if recorder.recording:
            results = _merge_worker_results(results, recorder)
        return results

    def _collect(self, n_items: int, submit: Callable, recorder) -> list:
        """The per-item submit loop the executor recovers through.

        Each round submits every unfinished item (with its attempt count) and
        collects results in input order.  Crashes (``BrokenProcessPool``),
        hangs (``tile_timeout`` exceeded) and corrupt result envelopes mark
        their items failed and — for the first two — condemn the pool, which
        :meth:`_discard_pool` tears down (killing workers when one is hung)
        so the next round starts on a fresh fork; items of a condemned pool
        that already finished are kept, the rest fail without further
        waiting.  Genuine exceptions raised *by the work* propagate
        immediately (the round's unstarted items are cancelled): a
        deterministic bug would fail every retry identically, and masking it
        as an executor failure would turn a wrong answer into a slow wrong
        answer.

        ``retry.max_retries`` bounds consecutive rounds that complete zero
        items; a round with any progress keeps the loop alive, so a pool
        that crashes repeatedly while still advancing is drained rather than
        abandoned.  Exhaustion raises
        :class:`~repro.exceptions.ExecutorBrokenError` with the completed
        prefix and pending positions, letting callers resume elsewhere.
        """
        retry = self.retry
        results: list = [None] * n_items
        done = [False] * n_items
        attempts = [0] * n_items
        wasted_rounds = 0
        while not all(done):
            pending = [i for i in range(n_items) if not done[i]]
            pool = self._ensure_pool()
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
            try:
                for i in pending:
                    future = futures.get(i)
                    if future is None:
                        continue
                    if (broke or hung) and not future.done():
                        # The pool is condemned; harvest items that finished
                        # before the break without blocking on the rest.
                        failed.append(i)
                        continue
                    try:
                        results[i] = _maybe_unseal(future.result(timeout=retry.tile_timeout))
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
            except BaseException:
                for future in futures.values():
                    future.cancel()
                raise
            if broke or hung:
                self._discard_pool(kill=hung)
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


#: The executor kind names of :func:`make_executor` (and of
#: ``ExecutionPolicy.executor``).
EXECUTOR_KINDS = ("serial", "thread", "process")


def make_executor(
    kind: str, max_workers: int | None = None, retry: RetryPolicy | None = None
) -> CellExecutor:
    """Build the executor of a kind name; the caller owns (and closes) it.

    ``"serial"``, ``"thread"`` and ``"process"`` map to
    :class:`SerialExecutor`, :class:`PooledThreadExecutor` and
    :class:`PooledProcessExecutor`.  ``max_workers`` sizes the pools;
    ``retry`` is the process pool's self-healing contract.
    """
    if kind == "serial":
        return SerialExecutor()
    if kind == "thread":
        return PooledThreadExecutor(max_workers)
    if kind == "process":
        return PooledProcessExecutor(max_workers, retry=retry)
    raise ExperimentError(
        f"unknown executor {kind!r}; expected one of {list(EXECUTOR_KINDS)}"
    )


def get_executor(executor: str | CellExecutor) -> CellExecutor:
    """Pass an executor through, or build one from its kind name.

    An executor built here from a name is the caller's to close.
    """
    if isinstance(executor, CellExecutor):
        return executor
    return make_executor(executor)
