"""Host speed, sampled during every timed interval, to take it out of the reported times.

On a shared host the same check can run 1.5 to 2 times slower for seconds or
minutes at a time, while process CPU time still equals wall time, so neither
clock shows it. `timed(fn)` runs `fn` while a SIGALRM timer interrupts it
every `PERIOD_S` of wall time to time a small fixed pure-Python task; the task
is also timed a few times right before and right after. The interval, less
the time spent in those interruptions, is its raw time. Multiplied by
`REFERENCE_S` over the median task time, it becomes reference seconds: the
time the interval would take on a host where the task takes `REFERENCE_S`.
The task uses no sicheck code, so a change to the checker moves a scaled time
by the same factor as the raw one.

Changing the task, `REFERENCE_S` or `PERIOD_S` changes every reported time:
compare runs only across commits whose copies of this file are identical.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import Callable, TypeVar

T = TypeVar("T")

# About the task's time on a 2-vCPU Xeon VM at 2.1 GHz with Python 3.11.7, where
# it ranged over a factor of two; scaled times read close to raw seconds there.
REFERENCE_S = 0.0004
# Wall-clock seconds between two samples of the task inside a timed interval.
PERIOD_S = 0.1
# Samples of the task right before and right after each interval.
EDGE_SAMPLES = 5


def _task() -> int:
    """Integer arithmetic only: it allocates nothing that would move the collector's counts."""
    acc = 0
    for i in range(5_000):
        acc += i * i % 7
    return acc


class _Samples:
    def __init__(self) -> None:
        self.times: list[float] = []
        self.spent = 0.0

    def take(self, *_signal_args) -> None:
        started = time.perf_counter()
        _task()
        took = time.perf_counter() - started
        self.times.append(took)
        self.spent += took

    def edge(self) -> None:
        for _ in range(EDGE_SAMPLES):
            self.take()


def timed(fn: Callable[[], T]) -> tuple[T, float, float]:
    """Run `fn()` in the main thread; return its result, raw seconds and reference seconds."""
    samples = _Samples()
    samples.edge()
    previous = signal.signal(signal.SIGALRM, samples.take)
    samples.spent = 0.0
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
    started = time.perf_counter()
    try:
        result = fn()
    finally:
        elapsed = time.perf_counter() - started
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    raw = elapsed - samples.spent
    samples.edge()
    return result, raw, raw * REFERENCE_S / statistics.median(samples.times)


def scale_now(raw: float) -> float:
    """Reference seconds of an interval that just ended and could not be sampled inside."""
    samples = _Samples()
    samples.edge()
    samples.edge()
    return raw * REFERENCE_S / statistics.median(samples.times)
