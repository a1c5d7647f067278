"""The machine's speed of the moment, measured with a fixed piece of work.

On a shared machine the CPU time a simulation takes follows the load of
co-tenants: back-to-back runs of one scenario differ by a third.  The
benchmark therefore times a fixed pure-Python chunk of work -- heap
pushes and pops of small objects and dict updates, like the simulator's
event loop -- next to every measurement, and reports host times scaled
to :data:`REFERENCE_S`, the chunk's time at the speed this benchmark was
written at::

    scaled = measured * REFERENCE_S / chunk time

A faster simulator lowers the measured time and leaves the chunk's time
alone, so it shows in full in the scaled time.  The chunk's code lives
here, not under ``src/``, so it does not change with the simulator.
"""

from __future__ import annotations

import gc
import heapq
import signal
import time

#: The chunk's CPU time, in seconds, on a 2-vCPU 2.1 GHz Xeon VM at a
#: typical moment (its time there ranges over about 4-7 ms).
REFERENCE_S = 0.005

#: Loop iterations in one chunk.
CHUNK_ITERATIONS = 4000

#: CPU seconds of the simulation between two chunks of a SpeedProbe.
PROBE_PERIOD_S = 0.25


class _Event:
    __slots__ = ("time", "key", "value")


def _work(n: int) -> int:
    heap, table, x = [], {}, 1
    for i in range(n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        ev = _Event()
        ev.time, ev.key, ev.value = x % 1000 + i, i % 257, [x, i]
        heapq.heappush(heap, (ev.time, i, ev))
        if len(heap) > 64:
            ev = heapq.heappop(heap)[2]
            table[ev.key] = table.get(ev.key, 0) + len(ev.value)
    return sum(table.values())


def chunk_seconds() -> float:
    """CPU seconds one chunk takes now, with the collector held off.

    It reads the thread's clock: while a process-wide CPU timer is
    armed, Linux updates the process clock only once per tick.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.thread_time()
        _work(CHUNK_ITERATIONS)
        return time.thread_time() - t0
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Time a chunk every :data:`PROBE_PERIOD_S` of user CPU while active.

    A ``SIGVTALRM`` handler driven by ``signal.setitimer(ITIMER_VIRTUAL)``
    runs the chunks between the simulation's bytecodes, so the chunks
    sample the machine's speed all through the run.  Like the layer
    sampler, it reads no random stream and schedules no events.
    """

    def __init__(self) -> None:
        self.times: list = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        self.times.append(chunk_seconds())

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGVTALRM, self._tick)
        signal.setitimer(signal.ITIMER_VIRTUAL, PROBE_PERIOD_S,
                         PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0.0, 0.0)
        signal.signal(signal.SIGVTALRM, self._previous)
