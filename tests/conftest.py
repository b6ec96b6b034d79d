"""A watchdog for every test: one that hangs fails the run with a traceback."""

import faulthandler
import os

import pytest

# Far above the slowest test (the criterion-8 comparison, about a minute on
# two CPUs): past it, every thread's traceback is dumped and pytest exits.
TIMEOUT_S = 900
STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    # Output is not captured yet: keep the real stderr for the dump.
    config.stash[STDERR] = os.dup(2)


def pytest_unconfigure(config):
    os.close(config.stash[STDERR])


@pytest.fixture(autouse=True)
def watchdog(request):
    faulthandler.dump_traceback_later(TIMEOUT_S, exit=True, file=request.config.stash[STDERR])
    yield
    faulthandler.cancel_dump_traceback_later()
