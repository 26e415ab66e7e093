"""Row bands of the interior grid and the thread pool that runs them.

Once the background model is learned, a reference pixel's tables and tests
depend only on that model and on the pixel's own row, so the interior grid
is cut into bands of BAND_ROWS rows that are processed independently.  Each
band task writes its own rows of arrays that the calling thread allocated,
so results do not depend on the number of pool threads.  They depend on the
band height only through BLAS: a matrix product can round its last bits
differently by row count, and by BLAS thread count.  Under OpenBLAS 0.3.31
(Haswell kernels), at block side 9 with one BLAS thread, a projection of up
to 14 rows and a Monte-Carlo rebuild of up to 152 rows differ from longer
products; with two BLAS threads projections of 80 and 81 rows differ too.
At block side 5 a rebuild of up to 1000 rows differs, and at 17 both
products differ at nearly every row count.  So on narrow images, and at
block side 17 on any image, the tables and the Monte-Carlo counts can
change with the band height.

The pool has one worker per CPU.  Its threads start on the first task, not
at import.  A band task must not submit work to the pool itself: once every
worker waits on the pool it runs on, none is left to run the work, so
run_parallel raises RuntimeError when called from a pool worker.
"""
from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

BAND_ROWS = 32

_IN_POOL = threading.local()


def _mark_worker() -> None:
    _IN_POOL.worker = True


_POOL = ThreadPoolExecutor(max_workers=os.cpu_count() or 1,
                           thread_name_prefix="acbm-band",
                           initializer=_mark_worker)


def row_bands(rows: int) -> list[slice]:
    """Consecutive BAND_ROWS-row slices covering range(rows); the last one
    may be shorter."""
    return [slice(y, min(y + BAND_ROWS, rows))
            for y in range(0, rows, BAND_ROWS)]


def run_parallel(task, items) -> list:
    """task(item) for every item on the pool, results in item order.  Waits
    for every task before raising the first error, so no task still writes
    into the caller's arrays once this returns or raises.  Raises
    RuntimeError when called from a pool worker."""
    if getattr(_IN_POOL, "worker", False):
        raise RuntimeError("a band task cannot submit work to the band pool")
    futures = [_POOL.submit(task, item) for item in items]
    wait(futures)
    return [f.result() for f in futures]


def run_bands(task, rows: int) -> list:
    """task(band) for every row band of range(rows), on the pool."""
    return run_parallel(task, row_bands(rows))
