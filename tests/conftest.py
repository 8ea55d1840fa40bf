import tracemalloc

import pytest


@pytest.fixture
def peak_matrices():
    """peak(call, n) -> (call(), its tracemalloc peak beyond the memory traced before it, in n x n complex matrices).

    tracemalloc counts numpy's array buffers, so the peak is deterministic;
    buffers that LAPACK routines allocate themselves are not counted.
    """

    def peak(call, n):
        started = not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            result = call()
            return result, (tracemalloc.get_traced_memory()[1] - before) / (16 * n * n)
        finally:
            if started:
                tracemalloc.stop()

    return peak
