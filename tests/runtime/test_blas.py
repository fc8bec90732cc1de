"""The runtime pins numpy's BLAS to one thread: digests hold on any box.

A multithreaded OpenBLAS reorders reductions by thread count, which moves
DPME's synthetic-fit scores; inside forked workers it also oversubscribes
the cores.  These tests force the caller's BLAS to 2 threads and assert
that the runtime still reproduces the pinned golden digest, that every
entry point restores the caller's count, and that pools forked inside the
pin inherit one thread.
"""

import ctypes.util
import os
import platform
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.exceptions import BlasThreadError
from repro.runtime import (
    CellExecutor,
    PooledProcessExecutor,
    SerialExecutor,
    plan_cells,
    run_plan,
    run_plan_group,
    single_blas_thread,
)
from repro.runtime import blas
from repro.runtime.blas import blas_info, blas_threads
from repro.session import ExecutionPolicy, Session
from repro.verify.golden import (
    GOLDEN_CONFIGS,
    GOLDEN_GROUPS,
    digest_sweep_result,
    environment_matches,
    load_store,
    run_golden_case,
)


def _report_blas_threads(_item):
    return blas_threads()


class _RaisingExecutor(CellExecutor):
    """Records the BLAS thread count the work would see, then fails."""

    name = "raising"

    def __init__(self):
        self.seen = None

    def map(self, work, items):
        self.seen = blas_threads()
        raise ValueError("work failed")


@pytest.fixture
def two_blas_threads():
    """Force the caller's BLAS to 2 threads; restore the original after."""
    getter, setter = blas._controls()
    original = getter()
    setter(2)
    yield
    setter(original)


def _dpme_plan(us, tiny_preset):
    return plan_cells(
        "DPME", us, "linear", dims=5, epsilons=[1.0], preset=tiny_preset,
        seed=3,
    )


class TestPinnedDigest:
    def test_dpme_golden_case_matches_pin_under_two_threads(self, two_blas_threads):
        store = load_store()
        if not environment_matches(store):
            pytest.skip("stored pins are for another numerical environment")
        group = next(g for g in GOLDEN_GROUPS if g.group_id == "figure6-linear-sv2")
        assert blas_threads() == 2
        result = run_golden_case(group, GOLDEN_CONFIGS[0])
        assert "DPME" in result.series
        assert digest_sweep_result(result) == store["groups"][group.group_id]["digest"]
        assert blas_threads() == 2


def _run_group(plan, **kwargs):
    return run_plan_group([plan], **kwargs)[0]


class TestRestore:
    @pytest.mark.parametrize("entry", [run_plan, _run_group], ids=["plan", "group"])
    def test_entry_point_restores_callers_count(
        self, two_blas_threads, us, tiny_preset, entry
    ):
        entry(_dpme_plan(us, tiny_preset), mode="percell")
        assert blas_threads() == 2

    def test_restored_when_the_work_raises(self, two_blas_threads, us, tiny_preset):
        executor = _RaisingExecutor()
        with pytest.raises(ValueError, match="work failed"):
            run_plan(_dpme_plan(us, tiny_preset), mode="percell", executor=executor)
        assert executor.seen == 1
        assert blas_threads() == 2


class _RecordingExecutor(SerialExecutor):
    """Records the BLAS thread count each map call runs under."""

    def __init__(self):
        self.seen = []

    def map(self, work, items):
        self.seen.append(blas_threads())
        return super().map(work, items)


class TestBudgetSweep:
    def test_budget_sweep_runs_pinned(self, two_blas_threads, us, tiny_preset):
        executor = _RecordingExecutor()
        with Session(ExecutionPolicy(runtime="batched")) as session:
            session.budget_sweep(
                us, "linear", 5, [0.5, 1.0], preset=tiny_preset, executor=executor
            )
        assert executor.seen and set(executor.seen) == {1}
        assert blas_threads() == 2


class TestWorkers:
    def test_pool_forked_inside_run_plan_has_one_thread(
        self, two_blas_threads, us, tiny_preset
    ):
        with PooledProcessExecutor(max_workers=2) as executor:
            assert executor.pool is None
            run_plan(_dpme_plan(us, tiny_preset), mode="percell", executor=executor)
            assert executor.pool is not None  # forked during run_plan
            # Asked outside the pin, the workers still run one BLAS thread.
            assert executor.map(_report_blas_threads, [0, 1, 2, 3]) == [1, 1, 1, 1]
        assert blas_threads() == 2


class TestConcurrency:
    def test_concurrent_entrants_share_the_pin(self, two_blas_threads):
        both_inside = threading.Barrier(2)
        first_left = threading.Event()
        seen = {}

        def first():
            with single_blas_thread():
                both_inside.wait(timeout=10)
                seen["first"] = blas_threads()
            first_left.set()

        def second():
            with single_blas_thread():
                both_inside.wait(timeout=10)
                assert first_left.wait(timeout=10)
                # The other entrant has left; this one is still pinned.
                seen["second"] = blas_threads()

        threads = [threading.Thread(target=first), threading.Thread(target=second)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=20)
        assert not any(thread.is_alive() for thread in threads)
        assert seen == {"first": 1, "second": 1}
        assert blas_threads() == 2

    def test_stress_many_threads_never_see_an_early_restore(self, two_blas_threads):
        """More threads than cores churning the pin: a lost update to the
        depth counter would restore 2 threads under a pinned body."""
        unpinned = []
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def churn():
                for _ in range(200):
                    with single_blas_thread():
                        if blas_threads() != 1:
                            unpinned.append(blas_threads())

            threads = [threading.Thread(target=churn) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(old_interval)
        assert unpinned == []
        assert blas_threads() == 2

    def test_nested_entry_restores_only_at_the_outermost_exit(self, two_blas_threads):
        with single_blas_thread():
            with single_blas_thread():
                assert blas_threads() == 1
            assert blas_threads() == 1
        assert blas_threads() == 2


class TestMissingSetter:
    @pytest.mark.parametrize("library", [None, ctypes.util.find_library("c")])
    def test_missing_setter_raises_typed_error(self, monkeypatch, library):
        paths = [] if library is None else [library]
        monkeypatch.setattr(blas, "_numpy_openblas_paths", lambda: paths)
        blas._controls.cache_clear()
        try:
            with pytest.raises(BlasThreadError, match=blas_info()["name"]):
                with single_blas_thread():
                    pytest.fail("the body must not run unpinned")
        finally:
            monkeypatch.undo()
            blas._controls.cache_clear()
        with single_blas_thread():
            assert blas_threads() == 1


class TestNumpyFloor:
    def test_declared_numpy_floor_bundles_the_pinned_symbols(self):
        """numpy < 2.0 wheels bundle an OpenBLAS that exports other thread
        symbols, so the pin would raise on every run; the declared floors
        must exclude them."""
        root = Path(__file__).resolve().parents[2]
        for name in ("setup.py", "requirements-dev.txt"):
            floors = re.findall(r"numpy>=(\d+)", (root / name).read_text())
            assert floors and all(int(major) >= 2 for major in floors), name


class TestBlasCore:
    @pytest.mark.skipif(
        platform.machine() != "x86_64", reason="Haswell is an x86_64 kernel"
    )
    def test_core_follows_the_dispatched_kernel(self):
        """The fingerprint's ``blas_core`` is the kernel OpenBLAS actually
        runs: forcing another family in a child process is reported."""
        script = "from repro.runtime.blas import blas_core; print(blas_core())"
        env = {**os.environ, "PYTHONPATH": "src", "OPENBLAS_CORETYPE": "Haswell"}
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, check=True, cwd=Path(__file__).resolve().parents[2],
        ).stdout
        assert out.strip() == "Haswell"

    def test_library_without_the_symbol_reports_unknown(self, monkeypatch):
        monkeypatch.setattr(blas, "_numpy_openblas_paths", lambda: [])
        blas.blas_core.cache_clear()
        try:
            assert blas.blas_core() == "unknown"
        finally:
            monkeypatch.undo()
            blas.blas_core.cache_clear()
        assert blas.blas_core() != "unknown"
