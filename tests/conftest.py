"""Suite-wide checks and thread fixtures.

A test that leaves a non-daemon thread running fails. fedsim's one pool
(`analog_link._map`, which serves the projection draws and the downlink
decodes) is joined before the call that starts it returns, and this holds
it to that across every test. It is a hook rather than an autouse
fixture, so Hypothesis's health check on function-scoped fixtures does not
fire on the property tests.
"""

import os
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


@pytest.fixture
def started(monkeypatch):
    """The threads started during the test, in start order."""
    threads = []

    class Counted(threading.Thread):
        def start(self):
            threads.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Counted)
    return threads


@pytest.fixture
def use_cpus(monkeypatch):
    """use_cpus(n) makes `os.sched_getaffinity` report n usable CPUs."""
    def use(count):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(count)), raising=False)
    return use
