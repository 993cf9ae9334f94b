"""A time limit per test: a test still running after LIMIT seconds fails
with TimeLimit, raised in it by a SIGALRM, and the suite runs on to its
summary, so a change that makes the simulator loop forever fails its
first hung test and still reports every other failure.  Code that never
returns to the interpreter cannot see that signal: after 2 * LIMIT
seconds every thread's traceback is dumped to stderr and the pytest
process ends with exit code 1.

The Hypothesis profile ``no-shrink`` skips the shrink phase: a failing
property reports the first example that fails as it is, where shrinking
it could take longer than the limit.  Select it with
``pytest --hypothesis-profile no-shrink``; without that option the
default profile runs.
"""

import faulthandler
import os
import signal
import sys
import types

import pytest
from hypothesis import Phase, settings

settings.register_profile("no-shrink", phases=[p for p in Phase if p is not Phase.shrink])

# the slowest test takes under 6 s, and tests/line_coverage.py runs the
# suite under a tracer about six times slower
LIMIT = 60

_STDERR = pytest.StashKey[int]()


class TimeLimit(BaseException):
    """A test ran past its time limit.  Not an Exception, so no
    ``except Exception`` in the code under test or in Hypothesis holds it."""


def _expire(signum, frame):
    raise TimeLimit("the test ran past its time limit")


def _numbered(tb):
    """tb with a line number on every entry.  A signal can land on an
    instruction that has none, such as a loop's jump back, and pytest
    fails with an internal error on such an entry; it gets the line of
    the last instruction before it that has one."""
    entries = []
    while tb is not None:
        entries.append(tb)
        tb = tb.tb_next
    out = None
    for t in reversed(entries):
        line = t.tb_lineno
        if line is None:
            code = t.tb_frame.f_code
            line = code.co_firstlineno
            for start, _end, n in code.co_lines():
                if start > t.tb_lasti:
                    break
                line = n or line
        out = types.TracebackType(out, t.tb_frame, t.tb_lasti, line)
    return out


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    try:
        return (yield)
    except TimeLimit as e:
        raise e.with_traceback(_numbered(e.__traceback__))


def pytest_configure(config):
    # output is not captured while pytest configures: keep a copy of the
    # real stderr, since a traceback written to captured output is lost
    # with the process
    config.stash[_STDERR] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR])


@pytest.fixture(autouse=True)
def _time_limit(pytestconfig):
    faulthandler.dump_traceback_later(2 * LIMIT, exit=True, file=pytestconfig.stash[_STDERR])
    before = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, LIMIT)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, before)
    faulthandler.cancel_dump_traceback_later()
