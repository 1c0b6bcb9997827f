"""Suite-wide checks and fixtures.

A test that leaves a non-daemon thread running fails: fedsim starts no
thread, and a test that does must join what it starts. It is a hook rather
than an autouse fixture, so Hypothesis's health check on function-scoped
fixtures does not fire on the property tests.

`traced_peak` measures what a call allocates, for the tests that bound a
function's memory by the arrays it must make.
"""

import threading
import tracemalloc

import pytest


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    before = set(threading.enumerate())
    result = yield
    left = [thread.name for thread in threading.enumerate()
            if thread not in before and not thread.daemon]
    if left:
        pytest.fail(f"left non-daemon threads running: {left}",
                    pytrace=False)
    return result


@pytest.fixture
def traced_peak():
    """A function of (fn, *args) that calls fn(*args) and returns the peak
    of the memory tracemalloc traces during the call above what it traced
    at entry, in bytes. numpy reports its array buffers to tracemalloc, so
    every temporary counts, and so does what the call returns."""
    def measure(fn, *args):
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            entry = tracemalloc.get_traced_memory()[0]
            fn(*args)
            return tracemalloc.get_traced_memory()[1] - entry
        finally:
            if started:
                tracemalloc.stop()
    return measure
