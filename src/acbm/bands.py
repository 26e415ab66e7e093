"""Row bands of the interior grid and the thread pool that runs them.

Once the background model is learned, a reference pixel's tables and tests
depend only on that model and on the pixel's own row, so the interior grid
is cut into bands of BAND_ROWS rows that are processed independently.  Each
band task writes its own rows of arrays that the calling thread allocated,
so results do not depend on the number of pool threads.  Nor do they depend
on the band height: each block is projected as its own product.

The pool has one worker per CPU this process may run on.  Its threads start
on the first task, not at import.  Every BLAS product acbm makes runs in a
pool task, and run_parallel caps numpy's bundled OpenBLAS at one thread for
its whole call and then restores the caller's count.  So no result depends
on the caller's BLAS thread count, and no worker's product starts BLAS
threads that spin on the CPUs the other workers need.  One call runs at a
time: overlapping callers take turns.  The cap is process-wide, so a
product that another thread makes meanwhile also runs on one thread.
Without an OpenBLAS whose count can be set, the pool runs uncapped.

A band task must not submit work to the pool itself: once every worker
waits on the pool it runs on, none is left to run the work, so
run_parallel raises RuntimeError when called from a pool worker.
"""
from __future__ import annotations

import ctypes
import functools
import glob
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

BAND_ROWS = 32

_IN_POOL = threading.local()


def _mark_worker() -> None:
    _IN_POOL.worker = True


# one per CPU this process may run on, which an affinity mask can limit
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
_POOL = ThreadPoolExecutor(max_workers=_WORKERS,
                           thread_name_prefix="acbm-band",
                           initializer=_mark_worker)

_LOCK = threading.Lock()   # one run_parallel call at a time


@functools.cache
def _openblas():
    """(get, set) of numpy's bundled OpenBLAS thread count, or None."""
    libs = os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_{}_num_threads64_",
                     "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            get = getattr(lib, name.format("get"), None)
            put = getattr(lib, name.format("set"), None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


def row_bands(rows: int) -> list[slice]:
    """Consecutive BAND_ROWS-row slices covering range(rows); the last one
    may be shorter."""
    return [slice(y, min(y + BAND_ROWS, rows))
            for y in range(0, rows, BAND_ROWS)]


def run_parallel(task, items) -> list:
    """task(item) for every item on the pool, results in item order.  Waits
    for every task before raising the first error, so no task still writes
    into the caller's arrays once this returns or raises.  The tasks run on
    one BLAS thread, and one call at a time.  Raises RuntimeError when
    called from a pool worker."""
    # checked before the lock, which the caller of that worker's task holds
    if getattr(_IN_POOL, "worker", False):
        raise RuntimeError("a band task cannot submit work to the band pool")
    blas = _openblas()
    with _LOCK:
        if blas is not None:
            saved = blas[0]()
            blas[1](1)
        try:
            futures = [_POOL.submit(task, item) for item in items]
            wait(futures)
        finally:
            if blas is not None:
                blas[1](saved)
    return [f.result() for f in futures]


def run_bands(task, rows: int) -> list:
    """task(band) for every row band of range(rows), on the pool."""
    return run_parallel(task, row_bands(rows))
