"""The band pool."""
import os
import threading

from acbm import bands


def test_nested_pool_call_raises_instead_of_hanging():
    # one task per worker, each waiting on work of its own: run on the pool
    # they would leave no free worker and wait forever
    def nested(_):
        return bands.run_parallel(abs, [-1, -2])

    outcome = []

    def call():
        try:
            bands.run_parallel(nested, range(os.cpu_count() or 1))
        except RuntimeError as err:
            outcome.append(err)

    caller = threading.Thread(target=call, daemon=True)
    caller.start()
    caller.join(timeout=30)
    assert not caller.is_alive()
    assert len(outcome) == 1 and "band pool" in str(outcome[0])
    # the pool still serves callers from outside it
    assert bands.run_parallel(abs, [-3, 4]) == [3, 4]
