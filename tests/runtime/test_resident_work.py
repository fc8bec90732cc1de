"""The pooled process executor ships each map's work to a worker once.

``PooledProcessExecutor.map`` pickles its work callable into one private
temp file per map; workers load it on their first item and keep it in a
one-entry registry.  These tests pin that contract: one pickle per map,
one load per worker per map, a reload after any pool rebuild, and no
file left behind however the map ends.
"""

import errno
import os
import pickle
import signal
import tempfile
import time

import pytest

from repro.exceptions import ExecutorBrokenError
from repro.faults import RetryPolicy, make_injector, use_injector
from repro.obs import make_recorder, use_recorder
from repro.runtime import PooledProcessExecutor
from repro.runtime import executor as executor_module

#: Parent side: how often a :class:`_Counted` work was pickled.
_DUMPS = 0
#: Worker side: how often this process unpickled a :class:`_Counted`.
_LOADS = 0


class _Counted:
    """Work that counts its pickles (parent) and loads (worker)."""

    def __getstate__(self):
        global _DUMPS
        _DUMPS += 1
        return {}

    def __setstate__(self, state):
        global _LOADS
        _LOADS += 1

    def __call__(self, item):
        return item * item, os.getpid(), _LOADS, len(executor_module._RESIDENT)


def _boom(item):
    raise ValueError(f"genuine bug at {item}")


def _square(item):
    return item * item


@pytest.fixture
def work_dir(tmp_path, monkeypatch):
    """Route the executor's work files into a directory the test can list."""
    monkeypatch.setattr(executor_module, "_WORK_DIR", str(tmp_path))
    return tmp_path


def _run(executor, items):
    """Map a fresh :class:`_Counted`; return results and pickles made."""
    before = _DUMPS
    results = executor.map(_Counted(), items)
    return results, _DUMPS - before


def _loads_per_worker(results) -> dict[int, set[int]]:
    loads: dict[int, set[int]] = {}
    for _, pid, n_loads, _ in results:
        loads.setdefault(pid, set()).add(n_loads)
    return loads


class TestWorkShippedOnce:
    def test_work_pickled_once_per_map_and_loaded_once_per_worker(self, work_dir):
        items = list(range(12))
        with PooledProcessExecutor(max_workers=2) as executor:
            for round_ in (1, 2):
                results, dumps = _run(executor, items)
                assert [r[0] for r in results] == [v * v for v in items]
                assert dumps == 1
                # the pool persists: each worker loads each map's work once
                for counts in _loads_per_worker(results).values():
                    assert counts == {round_}

    def test_registry_never_holds_more_than_one_entry(self, work_dir):
        with PooledProcessExecutor(max_workers=2) as executor:
            for _ in range(3):
                results, _ = _run(executor, list(range(6)))
                assert {r[3] for r in results} == {1}

    def test_pickled_bytes_counted_from_the_one_blob(self, work_dir):
        recorder = make_recorder("summary")
        with use_recorder(recorder), PooledProcessExecutor(max_workers=2) as executor:
            executor.map(_square, list(range(6)))
            executor.map(_square, list(range(6)))
        summary = recorder.summary()
        per_call = summary["gauges"]["process.pickled_bytes_per_call"]["max"]
        assert summary["counters"]["process.pickled_bytes"] == 2 * per_call


class TestNoWorkFileLeftBehind:
    def test_after_success(self, work_dir):
        with PooledProcessExecutor(max_workers=2) as executor:
            assert executor.map(_square, [1, 2, 3]) == [1, 4, 9]
        assert list(work_dir.iterdir()) == []

    def test_after_a_work_exception(self, work_dir):
        with PooledProcessExecutor(max_workers=2) as executor:
            with pytest.raises(ValueError, match="genuine bug"):
                executor.map(_boom, [1, 2, 3])
            # the pool survives a genuine bug and serves the next map
            assert executor.map(_square, [1, 2, 3]) == [1, 4, 9]
        assert list(work_dir.iterdir()) == []

    def test_after_executor_broken_error(self, work_dir):
        retry = RetryPolicy(max_retries=1, backoff_seconds=0.01)
        with PooledProcessExecutor(max_workers=2, retry=retry) as executor:
            with use_injector(make_injector("seed=2;worker.crash=1.0x99")):
                with pytest.raises(ExecutorBrokenError):
                    executor.map(_square, list(range(4)))
        assert list(work_dir.iterdir()) == []

    def test_unpicklable_work_leaves_no_file(self, work_dir):
        with PooledProcessExecutor(max_workers=2) as executor:
            with pytest.raises(Exception):
                executor.map(lambda v: v, [1, 2])
        assert list(work_dir.iterdir()) == []

    def test_full_shared_memory_falls_back_to_the_temp_dir(
        self, work_dir, tmp_path_factory, monkeypatch
    ):
        fallback = tmp_path_factory.mktemp("fallback")
        monkeypatch.setattr(tempfile, "tempdir", str(fallback))
        real_dump = pickle.dump
        calls = []

        def full_once(obj, handle, protocol=None):
            calls.append(obj)
            if len(calls) == 1:
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_dump(obj, handle, protocol=protocol)

        monkeypatch.setattr(executor_module.pickle, "dump", full_once)
        with PooledProcessExecutor(max_workers=2) as executor:
            assert executor.map(_square, [1, 2, 3]) == [1, 4, 9]
        assert len(calls) == 2
        assert list(work_dir.iterdir()) == [] and list(fallback.iterdir()) == []


class TestReloadAfterRebuild:
    def test_injected_crashes_reload_the_work_and_finish(self, work_dir):
        items = list(range(6))
        recorder = make_recorder("summary")
        with PooledProcessExecutor(max_workers=2) as executor:
            first, _ = _run(executor, items)
            with use_recorder(recorder), use_injector(
                make_injector("seed=2;worker.crash=1.0x1")
            ):
                results, dumps = _run(executor, items)
        assert recorder.summary()["counters"]["executor.pool_rebuilds"] >= 1
        assert dumps == 1  # a retry reuses the map's file, never re-pickles
        assert [r[0] for r in results] == [v * v for v in items]
        # rebuilt workers fork from the parent's empty registry and reload
        fresh = set(_loads_per_worker(results)) - set(_loads_per_worker(first))
        assert fresh
        for pid in fresh:
            assert _loads_per_worker(results)[pid] == {1}
        assert list(work_dir.iterdir()) == []

    def test_sigkilled_worker_pool_reloads_the_work_and_finishes(self, work_dir):
        items = list(range(4))
        with PooledProcessExecutor(max_workers=2) as executor:
            _run(executor, items)
            victim = next(iter(executor.pool._processes))
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 10.0
            while not executor.pool._broken and time.monotonic() < deadline:
                time.sleep(0.01)
            results, dumps = _run(executor, items)
        assert dumps == 1
        assert [r[0] for r in results] == [v * v for v in items]
        assert victim not in _loads_per_worker(results)
        for counts in _loads_per_worker(results).values():
            assert counts == {1}  # every worker of the new pool loaded afresh

    def test_payload_corruption_is_still_detected(self, work_dir):
        items = list(range(5))
        recorder = make_recorder("summary")
        with use_recorder(recorder), PooledProcessExecutor(max_workers=2) as executor:
            with use_injector(make_injector("seed=4;payload.corrupt=1.0x1")):
                assert executor.map(_square, items) == [v * v for v in items]
        counters = recorder.summary()["counters"]
        assert counters["executor.payload_corruptions"] >= 1
        assert counters["executor.retries"] >= 1
