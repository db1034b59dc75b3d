"""How fast the CPU runs right now, so reported times can be scaled to it.

On the shared 2-core machine this benchmark was built on, one core's speed
swings between two states about 1.4× apart, over seconds to minutes.  A fixed
pure-Python loop ranges from 70 ms to 105 ms, with CPU time equal to wall
time and no steal time reported.  No amount of repetition inside one run
removes a swing that lasts minutes.  So the untraced units sample a fixed
calibration loop while they run, and every reported time is multiplied by
``REFERENCE_S / c``, where ``c`` is the median duration of the unit's loops.
The loops' own time is taken out of the measured intervals first.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
import time
from typing import Iterator, List, Optional

#: Iterations of the calibration loop (about 1.3–2.1 ms here).
LOOP = 20_000

#: The loop duration that defines reference speed: a time ``t`` measured
#: while the loop takes ``c`` seconds is reported as ``t * REFERENCE_S / c``.
REFERENCE_S = 0.0015

#: Seconds between calibration samples taken by :meth:`Speedometer.ticking`.
TICK_S = 0.1

#: A point's own factor uses the samples taken within this many seconds of it.
WINDOW_S = 1.0


def loop_seconds() -> float:
    start = time.perf_counter()
    total = 0
    for value in range(LOOP):
        total += value * value
    return time.perf_counter() - start


class Speedometer:
    """Calibration samples taken during one unit."""

    def __init__(self):
        self.samples: List[float] = []
        #: ``time.perf_counter()`` at the end of each sample, ascending.
        self.times: List[float] = []
        #: Seconds spent in calibration loops so far (to subtract from walls).
        self.spent = 0.0

    def sample(self) -> None:
        start = time.perf_counter()
        self.samples.append(loop_seconds())
        self.times.append(time.perf_counter())
        self.spent += self.times[-1] - start

    def calibrate(self, count: int = 20) -> None:
        """Take ``count`` samples back to back."""
        for _ in range(count):
            self.sample()

    def factor(self, start: Optional[float] = None, end: Optional[float] = None) -> float:
        """Multiplier from measured seconds to reference seconds.

        With ``start``/``end`` (``perf_counter`` values) it uses the samples
        within ``WINDOW_S`` of that interval, when there are any, so a short
        interval is scaled by the speed at the time it ran.
        """
        samples = self.samples
        if start is not None and end is not None:
            lo = bisect.bisect_left(self.times, start - WINDOW_S)
            hi = bisect.bisect_right(self.times, end + WINDOW_S)
            samples = self.samples[lo:hi] or samples
        return REFERENCE_S / statistics.median(samples) if samples else 1.0

    @contextlib.contextmanager
    def ticking(self, interval: float = TICK_S) -> Iterator["Speedometer"]:
        """Sample every ``interval`` seconds on the main thread (SIGALRM)."""
        previous = signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, interval, interval)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
