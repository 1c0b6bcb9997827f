"""Suite-wide checks.

A test that leaves a non-daemon thread running fails: fedsim starts no
thread, and a test that does must join what it starts. It is a hook rather
than an autouse fixture, so Hypothesis's health check on function-scoped
fixtures does not fire on the property tests.
"""

import threading

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
