"""Host-speed sampling.

The sandbox this benchmark was tuned on runs a fixed piece of Python from
1.1x to 1.65x its fastest time, in phases that last seconds to minutes,
and CPU time moves with wall time.  Raw host times of the same inputs
therefore spread by up to a third between runs.  So while a run is timed,
a timer signal runs a fixed calibration loop every ``INTERVAL_S`` and
records how long it took.  An interval of host time is then scaled by
``REFERENCE_S / calibration time``, averaged over the samples taken in and
around it, after the samples' own time is taken out.  A scaled time reads
as host seconds on a machine that runs the loop in ``REFERENCE_S``.  A
program change does not touch the loop, so scaling cancels the machine's
drift but not the change.
"""

from __future__ import annotations

import bisect
import signal
import time

# Median calibration time on the machine the bounds were set on (2 vCPU
# Xeon at 2.0 GHz, Python 3.11.7).  Any constant gives the same
# comparisons; this one keeps scaled times close to raw ones there.
REFERENCE_S = 0.0002
INTERVAL_S = 0.025


class _Probe:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


_PROBE = _Probe(3)
_TABLE = {i: i * 7 for i in range(64)}


def _step(x: int) -> int:
    return x * 3 % 7


def calibrate() -> float:
    """Host seconds of one run of the calibration loop.

    Calls, attribute loads, dict lookups and integer arithmetic, as the
    simulator does, but no container allocation: a loop that allocated
    would set off garbage collections whose cost depends on the heap the
    program left behind, not on the machine.
    """
    probe, table = _PROBE, _TABLE
    acc = 0
    t0 = time.perf_counter()
    for i in range(1000):
        acc += _step(i) + table[i & 63] + probe.value
    return time.perf_counter() - t0


class SpeedSampler:
    """Calibration samples every ``INTERVAL_S`` while the context is open."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _sample(self, signum, frame):
        self.starts.append(time.perf_counter())
        self.durations.append(calibrate())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def raw(self, start: float, end: float) -> float:
        """Host seconds from start to end, less the samples taken inside."""
        lo, hi = bisect.bisect_left(self.starts, start), bisect.bisect_left(self.starts, end)
        return end - start - sum(self.durations[lo:hi])

    def scaled(self, start: float, end: float) -> float:
        """``raw`` scaled by the machine speed sampled in and around the interval."""
        lo = bisect.bisect_left(self.starts, start - INTERVAL_S)
        hi = bisect.bisect_right(self.starts, end + INTERVAL_S)
        near = self.durations[lo:hi]
        if not near:  # no sample yet or any more: take the closest one
            near = self.durations[min(lo, len(self.durations) - 1):][:1]
        if not near:
            raise RuntimeError("no speed samples: the sampler was not running")
        speed = sum(REFERENCE_S / d for d in near) / len(near)
        return self.raw(start, end) * speed
