"""Machine-speed probe, for timing on a shared CPU whose speed drifts.

On a small shared VM the speed this process runs at changes with the
load of other tenants, by up to 2x within seconds and between minutes,
and the kernel reports no steal time for it.  A raw wall time therefore
measures the machine as much as the program.

`SpeedProbe` runs a fixed pure-Python loop from a SIGALRM handler every
`INTERVAL` seconds and records how long each loop took.  Python runs the
handler in the main thread between bytecodes, so the probes sample the
same moments as the code being timed.  `at_nominal_speed` turns the wall
time of some timed intervals into time at a fixed nominal speed:

    speed factor = NOMINAL_PROBE_S / mean(probe durations inside them)
    time         = mean(wall - probe durations inside) * speed factor

The result still scales with the work the program does, and the probe
shares no code with the program.  It differs from wall time by the
machine's speed during the run relative to the nominal speed, which
is measured, not assumed.
"""

from __future__ import annotations

import signal
import statistics
import time
from array import array
from dataclasses import dataclass

INTERVAL = 0.01
LOOP = 1500
# The loop's duration at the nominal speed: the 5th percentile of its
# durations on the 2-core x86_64 VM (Xeon, Python 3.11) this benchmark was
# written on, where the median was 50-70 us.
NOMINAL_PROBE_S = 45e-6


@dataclass
class Interval:
    wall_s: float
    probe_s: float  # summed duration of the probes that ran inside it
    probes: int


def at_nominal_speed(intervals: list[Interval], fallback_probe_s: float) -> float:
    """Mean wall time of `intervals`, less their probes, at the nominal speed.

    Intervals too short, or too deep in single C calls, to hold a probe
    take the mean probe duration `fallback_probe_s` of the whole run.
    """
    work = sum(iv.wall_s - iv.probe_s for iv in intervals) / len(intervals)
    probes = sum(iv.probes for iv in intervals)
    mean = sum(iv.probe_s for iv in intervals) / probes if probes else fallback_probe_s
    return work * NOMINAL_PROBE_S / mean


class SpeedProbe:
    def __init__(self):
        self.durations = array("d")

    def _tick(self, signum, frame):
        start = time.perf_counter()
        acc = 0
        for i in range(LOOP):
            acc += i
        self.durations.append(time.perf_counter() - start)

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)

    def since(self, begin: int, wall_s: float) -> Interval:
        """The interval of length `wall_s` that began at probe count `begin`."""
        inside = self.durations[begin:]
        return Interval(wall_s, sum(inside), len(inside))

    def timed(self, fn):
        """(Interval, fn()) for one call of fn."""
        begin = len(self.durations)
        start = time.perf_counter()
        result = fn()
        return self.since(begin, time.perf_counter() - start), result

    def mean(self) -> float:
        """Mean duration of every probe so far; the nominal one if none ran."""
        return statistics.fmean(self.durations) if self.durations else NOMINAL_PROBE_S
