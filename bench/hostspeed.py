"""How fast the host is right now, and host time with that taken out.

This machine is a few cores of a shared host: other tenants on the same
cores and caches slow one process by 25 % and more for tens of seconds
at a time. ``calibrate()`` times a fixed loop that no change to the
simulator can move, so what moves it is the host; a measurement
divided by ``slowness`` of the loops around it reads as it would on
this machine while it is quiet.
"""

from __future__ import annotations

import heapq
import statistics
import time

#: CPU seconds ``calibrate()`` takes on the reference machine: this
#: repository's 2-core box while no other tenant is busy.
CAL_REF_S = 0.030


class _Slot:
    __slots__ = ("due", "hops")

    def __init__(self, due, hops):
        self.due = due
        self.hops = hops


def calibrate() -> float:
    """CPU seconds of a fixed loop of heap, dict, attribute and
    allocation traffic, the mix an event loop makes. Standard library
    only."""
    heap, seen, due = [], {}, 12345
    push, pop = heapq.heappush, heapq.heappop
    started = time.process_time()
    for index in range(30_000):
        due = (due * 1103515245 + 12345) & 0x7FFFFFFF
        push(heap, (due, index, _Slot(due, index & 7)))
        if index & 1:
            _when, key, slot = pop(heap)
            seen[key & 1023] = slot.due + slot.hops
    return time.process_time() - started


def slowness(before: float, after: float) -> float:
    """How much slower than the reference the host ran between two
    ``calibrate()`` results (1.0: as fast as the reference)."""
    return (before + after) / 2 / CAL_REF_S


def host_cost(samples: list, events: int) -> float:
    """CPU seconds ``events`` simulated events cost at reference speed.

    ``samples`` holds one ``(cpu_s, events, slowness)`` per timed
    sub-run. Each sub-run's cost per event is divided by how slow the
    host was around it; the median over the sub-runs then drops the
    ones a short burst hit alone.
    """
    return events * statistics.median(cpu / count / slow for cpu, count, slow in samples)
