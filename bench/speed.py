"""Machine-speed probe: timings expressed in reference seconds.

On a host whose cores are shared, the speed of the same Python code
drifts by up to a factor of two within seconds, and that drift, not the
program, would set the spread of every timing.  A fixed pure-Python loop
made of the engine's kinds of work (frozen dataclass arithmetic, a list
comprehension summed through a generator, Fraction arithmetic, string
joining) slows down and speeds up with the program, so each timing is
scaled by how long that loop took around it:

    reference seconds = seconds * REFERENCE_LOOP_S / loop seconds

REFERENCE_LOOP_S is a typical time of the loop on a 2.1 GHz Intel Xeon
vCPU under CPython 3.11, where it ranges from 0.6 to 1.1 ms with the
load on the host; reference seconds therefore read roughly as seconds on
that machine.  The loop runs no fescroll code: a change to the program
moves the timings and leaves the loop alone.  The probe takes about 2% of
the time (1 ms in every 50 ms); wall-clock timings exclude it, and traced
span times include the share of it that lands in each span.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction

REFERENCE_LOOP_S = 0.00100
INTERVAL_S = 0.05
WINDOW_S = 1.0


@dataclass(frozen=True)
class _Pair:
    a: int
    c: int

    def __add__(self, other: _Pair) -> _Pair:
        return _Pair(self.a + other.a, self.c + other.c)


def loop_seconds() -> float:
    """Time one run of the fixed loop.  The collector is paused, because a
    collection inside the loop would walk the host program's heap and make
    the loop measure that heap instead of the machine."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc = _Pair(0, 0)
        for i in range(100):
            acc = acc + _Pair(i, i % 7)
        degrees = [acc.c - 3 * j for j in range(2000)]
        total = sum(max(0, d + 1) for d in degrees)
        total += sum((Fraction(i, i + 1) for i in range(1, 10)), Fraction(0)).numerator
        total += len(",".join(str(d) for d in degrees[:150]))
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


def scale(samples: list[float]) -> float:
    """Factor from seconds to reference seconds, given loop timings taken
    at even intervals.  Their interquartile mean follows the average speed
    over the interval, as the program's time does, and ignores a sample
    that was preempted."""
    ordered = sorted(samples)
    trim = len(ordered) // 4
    return REFERENCE_LOOP_S / statistics.fmean(ordered[trim:len(ordered) - trim])


class SpeedProbe:
    """Times the loop every INTERVAL_S of wall time, from a SIGALRM timer,
    while the `with` block runs, and once on entry and on exit.

    `spent` is the total time the probe took, so callers can subtract it
    from what they time."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (end time, loop seconds)
        self.spent = 0.0
        self._busy = False

    def sample(self, *_signal) -> None:
        if self._busy:  # a timer signal that lands inside the probe itself
            return
        self._busy = True
        seconds = loop_seconds()
        self.samples.append((time.perf_counter(), seconds))
        self.spent += seconds
        self._busy = False

    def __enter__(self) -> SpeedProbe:
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self.sample()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def scale(self, start: float | None = None, end: float | None = None) -> float:
        """scale() over the samples taken within WINDOW_S of [start, end]
        and the nearest sample on each side; over all samples by default.
        Single samples are noisy (a 1 ms loop can be preempted), so the
        window trades tracking speed for a steadier estimate."""
        if start is None or end is None:
            return scale([s for _t, s in self.samples])
        inside = [s for t, s in self.samples if start - WINDOW_S <= t <= end + WINDOW_S]
        before = [s for t, s in self.samples if t < start - WINDOW_S][-1:]
        after = [s for t, s in self.samples if t > end + WINDOW_S][:1]
        return scale(before + inside + after)
