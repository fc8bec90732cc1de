"""Pin numpy's bundled OpenBLAS to one thread while the runtime executes.

The executors are the runtime's only source of parallelism.  A
multithreaded BLAS inside pool workers oversubscribes the cores, and its
reduction order depends on the thread count, which moves the histogram
baselines' synthetic-fit scores from machine to machine.
:func:`single_blas_thread` therefore pins BLAS to one thread for the
duration of :func:`~repro.runtime.run_plan` (and the other protocol entry
points).  Pools forked inside the pin inherit one thread.

The thread count is process-global, so the pin is re-entrant and
thread-safe: the first entrant saves the caller's count and pins it, and
the last exit restores it, also when the work raises.  If numpy's BLAS
has no thread control, entering raises :class:`~repro.exceptions.
BlasThreadError`; the runtime never runs unpinned.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import os
import threading
from functools import lru_cache
from pathlib import Path

import numpy as np

from ..exceptions import BlasThreadError

__all__ = [
    "PINNED_BLAS_THREADS",
    "blas_core",
    "blas_info",
    "blas_threads",
    "single_blas_thread",
]

#: The BLAS thread count inside the pin.
PINNED_BLAS_THREADS = 1

_GETTER = "scipy_openblas_get_num_threads64_"
_SETTER = "scipy_openblas_set_num_threads64_"
_CORENAME = "scipy_openblas_get_corename64_"

_lock = threading.Lock()
_depth = 0
_saved = PINNED_BLAS_THREADS


def _reset_lock_in_child() -> None:
    # A fork taken while another thread held the lock would deadlock the child.
    global _lock
    _lock = threading.Lock()


os.register_at_fork(after_in_child=_reset_lock_in_child)


def blas_info() -> dict[str, str]:
    """The BLAS numpy was built against, as ``numpy.show_config`` reports it."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"name": str(blas.get("name")), "version": str(blas.get("version"))}


def _numpy_openblas_paths() -> list[str]:
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    return sorted(glob.glob(str(libs / "*openblas*")))


def _openblas() -> ctypes.CDLL | None:
    """numpy's bundled OpenBLAS (the library with the thread controls)."""
    for path in _numpy_openblas_paths():
        lib = ctypes.CDLL(path)
        if hasattr(lib, _GETTER) and hasattr(lib, _SETTER):
            return lib
    return None


@lru_cache(maxsize=1)
def _controls() -> tuple:
    """``(get, set)`` thread-count functions of numpy's bundled OpenBLAS."""
    lib = _openblas()
    if lib is not None:
        getter, setter = getattr(lib, _GETTER), getattr(lib, _SETTER)
        getter.argtypes, getter.restype = [], ctypes.c_int
        setter.argtypes, setter.restype = [ctypes.c_int], None
        return getter, setter
    info = blas_info()
    raise BlasThreadError(
        f"cannot pin numpy's BLAS ({info['name']} {info['version']}) to one "
        f"thread: no {_SETTER} in numpy's bundled libraries (numpy >= 2.0 "
        f"wheels ship it)"
    )


@lru_cache(maxsize=1)
def blas_core() -> str:
    """The kernel family numpy's OpenBLAS dispatched to on this CPU.

    ``SkylakeX`` on AVX-512 hosts, ``Haswell`` on AVX2-only ones (or under
    ``OPENBLAS_CORETYPE=Haswell``); ``"unknown"`` when the library does not
    report it.  GEMM results differ between kernels in the last bits.
    """
    lib = _openblas()
    corename = getattr(lib, _CORENAME, None) if lib is not None else None
    if corename is None:
        return "unknown"
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def blas_threads() -> int:
    """numpy's current BLAS thread count."""
    return int(_controls()[0]())


@contextlib.contextmanager
def single_blas_thread():
    """Run the body with numpy's BLAS pinned to one thread (re-entrant)."""
    global _depth, _saved
    getter, setter = _controls()
    with _lock:
        if _depth == 0:
            _saved = getter()
            setter(PINNED_BLAS_THREADS)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                setter(_saved)
