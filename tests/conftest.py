"""A time limit per test: a test still running after LIMIT seconds dumps
every thread's traceback to stderr and ends the pytest process with exit
code 1, so a change that makes the simulator loop forever fails the suite
at its first hung test instead of running on."""

import faulthandler
import os
import sys

import pytest

# the slowest test takes under 6 s, and tests/line_coverage.py runs the
# suite under a tracer about six times slower
LIMIT = 60

_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    # output is not captured while pytest configures: keep a copy of the
    # real stderr, since a traceback written to captured output is lost
    # with the process
    config.stash[_STDERR] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR])


@pytest.fixture(autouse=True)
def _time_limit(pytestconfig):
    faulthandler.dump_traceback_later(LIMIT, exit=True, file=pytestconfig.stash[_STDERR])
    yield
    faulthandler.cancel_dump_traceback_later()
