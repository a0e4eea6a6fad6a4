"""Host speed, sampled while the benchmark works.

The 2-CPU sizing host runs at a speed that drifts by 20–40% over seconds
to minutes, independently on each core, so raw host seconds of the same
work spread too widely between runs to resolve a regression.  The drift
is visible to a fixed reference loop run on the same core at the same
moment: while :func:`sampling` is active, ``SIGPROF`` fires every
:data:`INTERVAL_S` of the process's CPU time, and the handler times the
loop in thread CPU time (so preemption does not count).  The loop pushes
and pops tuples through a binary heap, like the simulator's event
queues: tuple allocation, comparisons and C calls.  On the sizing host
it tracked the simulator's slowdowns more closely than a pure
arithmetic loop, which slowed down less than the simulator did.  Each
sample is the host's *speed*: the loop's nominal time over its measured
time, near 1.0 at the sizing host's typical speed.

Host seconds times the mean speed over the samples taken while they
passed are *nominal seconds*: what the same work would have taken at
nominal speed.  The loop costs about 1–2% of the sampled CPU time.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import threading
import time
from contextlib import contextmanager
from typing import Iterator

#: Heap entries the reference loop pushes and pops (about 0.3 ms).
REF_ENTRIES = 400
#: The loop's thread CPU time at the sizing host's typical speed.
NOMINAL_REF_S = 0.0003
#: Process CPU seconds between samples.
INTERVAL_S = 0.025


def reference_speed() -> float:
    """Time the reference loop once; nominal time over measured time."""
    start = time.thread_time()
    heap: list[tuple[int, int]] = []
    for i in range(REF_ENTRIES):
        heapq.heappush(heap, ((i * 7919) % 1000, i))
    while heap:
        heapq.heappop(heap)
    return NOMINAL_REF_S / max(time.thread_time() - start, 1e-9)


class SpeedSampler:
    """The speed samples taken during one :func:`sampling` block."""

    def __init__(self) -> None:
        self.speeds: list[float] = []

    def _tick(self, signum: int, frame: object) -> None:
        self.speeds.append(reference_speed())


_active: SpeedSampler | None = None


@contextmanager
def sampling() -> Iterator[SpeedSampler | None]:
    """Sample host speed during the block.

    Yields the sampler, or ``None`` when an enclosing block of this
    process already samples (its sampler gets the samples) or when not
    on the main thread, which alone receives signals.  The block
    always ends with at least one sample, so a block shorter than one
    interval still has a speed.
    """
    global _active
    on_main = threading.current_thread() is threading.main_thread()
    if _active is not None or not on_main:
        yield None
        return
    sampler = _active = SpeedSampler()
    previous = signal.signal(signal.SIGPROF, sampler._tick)
    signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
    try:
        yield sampler
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, previous)
        _active = None
        if not sampler.speeds:
            sampler.speeds.append(reference_speed())


def mean_speed(speeds: list[float]) -> float:
    """Mean speed over *speeds* (1.0 when there are none)."""
    return statistics.fmean(speeds) if speeds else 1.0
