"""A time limit per test: a test still running after LIMIT seconds dumps
every thread's traceback to stderr and ends the pytest process with exit
code 1, so a change that makes the simulator loop forever fails the suite
at its first hung test instead of running on.

The Hypothesis profile ``no-shrink`` skips the shrink phase: a failing
property reports the first example that fails as it is.  Under some
faults shrinking runs past LIMIT, and the process then ends without the
example.  Select it with ``pytest --hypothesis-profile no-shrink``;
without that option the default profile runs.
"""

import faulthandler
import os
import sys

import pytest
from hypothesis import Phase, settings

settings.register_profile("no-shrink", phases=[p for p in Phase if p is not Phase.shrink])

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
