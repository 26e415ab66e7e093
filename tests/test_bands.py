"""The band pool."""
import threading

import pytest

from acbm import bands

BLAS = bands._openblas()
needs_blas = pytest.mark.skipif(
    BLAS is None, reason="numpy's OpenBLAS thread count cannot be set")


@pytest.fixture(params=[1, 2])
def caller_threads(request):
    """The caller's OpenBLAS thread count, set for the test and put back."""
    get, put = BLAS
    before = get()
    put(request.param)
    yield request.param
    put(before)


def test_nested_pool_call_raises_instead_of_hanging():
    # one task per worker, each waiting on work of its own: run on the pool
    # they would leave no free worker and wait forever
    def nested(_):
        return bands.run_parallel(abs, [-1, -2])

    outcome = []

    def call():
        try:
            bands.run_parallel(nested, range(bands._WORKERS))
        except RuntimeError as err:
            outcome.append(err)

    caller = threading.Thread(target=call, daemon=True)
    caller.start()
    caller.join(timeout=30)
    assert not caller.is_alive()
    assert len(outcome) == 1 and "band pool" in str(outcome[0])
    # the pool still serves callers from outside it
    assert bands.run_parallel(abs, [-3, 4]) == [3, 4]


@needs_blas
def test_band_tasks_run_on_one_blas_thread(caller_threads):
    get, _ = BLAS
    tasks = 2 * bands._WORKERS
    assert bands.run_parallel(lambda _: get(), range(tasks)) == [1] * tasks
    assert get() == caller_threads


@needs_blas
def test_blas_count_restored_after_a_task_raises(caller_threads):
    get, _ = BLAS

    def task(i):
        if i == 1:
            raise ValueError("band 1")
        return get()

    with pytest.raises(ValueError, match="band 1"):
        bands.run_parallel(task, range(3))
    assert get() == caller_threads
    # and the next call caps and restores again
    assert bands.run_parallel(task, [0, 2]) == [1, 1]
    assert get() == caller_threads


@needs_blas
def test_blas_count_restored_after_overlapping_callers(caller_threads,
                                                       monkeypatch):
    # B calls while A's task runs: it waits for the pool, and its task
    # starts only once A's call is done.  B saves the count A put back, so
    # the caller's count is back after each call
    get, _ = BLAS
    b_waits, b_holds = threading.Event(), threading.Event()

    class Lock:
        """The pool's lock, telling when B has to wait for it.  A, leaving
        it, goes on only once B holds it: a count that A restored after
        leaving would land under B's call."""
        lock = threading.Lock()

        def __enter__(self):
            if not self.lock.acquire(blocking=False):
                b_waits.set()
                self.lock.acquire()
                b_holds.set()

        def __exit__(self, *exc):
            self.lock.release()
            if b_waits.is_set():
                b_holds.wait(timeout=30)

    monkeypatch.setattr(bands, "_LOCK", Lock())
    log, seen = [], {}

    def call_b():
        seen["b"] = bands.run_parallel(task_b, [0])
        seen["count after b"] = get()

    caller_b = threading.Thread(target=call_b, daemon=True)

    def task_a(_):
        caller_b.start()
        waited = b_waits.wait(timeout=30)   # B is at the lock: never runs out
        log.append("a")
        return waited, get()

    def task_b(_):
        log.append("b")
        return get()

    assert bands.run_parallel(task_a, [0]) == [(True, 1)]
    caller_b.join(timeout=30)
    assert not caller_b.is_alive()
    assert log == ["a", "b"]
    assert seen == {"b": [1], "count after b": caller_threads}
    assert get() == caller_threads
