import collections
import gc
import sys
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


@pytest.fixture
def c_calls():
    """calls(call) -> (call(), a Counter of the calls made from Python during it, by "module.qualname").

    Uses sys.setprofile: a builtin function or method called from Python
    code counts once per call ("builtins.sorted", "numpy.ndarray.tolist",
    "_bisect.bisect_left"), and so does each Python function call or
    generator resumption ("landaudelta.census._close").  What C code calls
    (map calling its function, numpy's own internals) is not counted, and
    neither is calling a type, such as memoryview(a).  Garbage collection
    is paused during the call, so no gc callback (hypothesis installs one)
    runs inside it and the counts depend on the call alone.
    """

    def name(frame, event, arg):
        if event == "call":
            return f"{frame.f_globals.get('__name__')}.{frame.f_code.co_qualname}"
        module = arg.__module__ or type(arg.__self__).__module__
        return f"{module}.{arg.__qualname__}"

    def calls(call):
        counts = collections.Counter()

        def profile(frame, event, arg):
            if event in ("call", "c_call"):
                counts[name(frame, event, arg)] += 1

        previous, collecting = sys.getprofile(), gc.isenabled()
        gc.disable()
        sys.setprofile(profile)
        try:
            result = call()
        finally:
            sys.setprofile(previous)
            if collecting:
                gc.enable()
        counts["sys.setprofile"] -= 1  # the call that removes the profiler
        return result, +counts

    return calls
