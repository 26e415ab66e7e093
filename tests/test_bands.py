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
def test_blas_count_restored_after_overlapping_callers(caller_threads):
    # B enters while A's task runs and its task reads the count after A has
    # returned: A must not restore the count under B's task, nor B restore
    # the one A set
    get, _ = BLAS
    a_running, b_running, a_returned = (threading.Event() for _ in range(3))
    seen = {}

    def task_a(_):
        a_running.set()
        # with one worker, B's task starts only once this one ends
        b_running.wait(timeout=5)
        return get()

    def task_b(_):
        b_running.set()
        a_returned.wait(timeout=30)
        return get()

    def caller_a():
        seen["a"] = bands.run_parallel(task_a, [0])
        a_returned.set()

    def caller_b():
        a_running.wait(timeout=30)
        seen["b"] = bands.run_parallel(task_b, [0])

    callers = [threading.Thread(target=f, daemon=True)
               for f in (caller_a, caller_b)]
    for caller in callers:
        caller.start()
    for caller in callers:
        caller.join(timeout=60)
        assert not caller.is_alive()
    assert seen == {"a": [1], "b": [1]}
    assert get() == caller_threads
