"""Hierarchical timer wheel for coarse, frequently rescheduled timers.

Retransmission timeouts, PFC pause expiry, and DCQCN rate timers share
a pathological access pattern for a binary heap: they are armed on
every transmission and almost always cancelled or rescheduled before
firing. Pushed straight onto the heap, each re-arm is an O(log n)
insert plus a dead lazy-cancelled entry that lingers until its
deadline drains past.

The wheel parks such timers in hashed slots instead. Three levels with
slot widths of ~8.2 µs, ~524 µs, and ~33.6 ms (shifts 13/19/25 of the
integer-nanosecond clock) cover everything from sub-RTT pause frames
to multi-RTT RTOs; a timer is filed by its deadline's slot index at
the finest level whose span contains it. Insert and cancel are O(1).
A slot is only materialised into the engine's heap ("flushed") when
simulated time is about to reach it — at which point cancelled timers
are simply dropped, having never touched the heap at all.

Determinism: wheel timers carry ordinary engine sequence numbers and
are pushed into the heap (``engine._push``) as the ``(time, seq,
event)`` entries ``schedule()`` makes, *before* the engine executes
any event at or past the slot's start. Firing order is therefore
bit-identical to a pure-heap schedule.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine, Event

#: Sentinel for "no occupied wheel slot" (far beyond any simulated time).
NEVER = 1 << 62

#: Bit shifts defining each level's slot width: 2**13 ns ≈ 8.2 µs,
#: 2**19 ns ≈ 524 µs, 2**25 ns ≈ 33.6 ms.
SHIFTS = (13, 19, 25)

#: A timer goes to the finest level whose span exceeds its delay:
#: level 0 below 2**19 ns, level 1 below 2**25 ns, level 2 above.
_SPAN0 = 1 << SHIFTS[1]
_SPAN1 = 1 << SHIFTS[2]


class TimerWheel:
    """Three-level hashed timer wheel feeding an engine's event heap.

    Slots are sparse: per level, a dict maps slot index -> list of
    events, and a small min-heap of occupied indices tracks which slot
    comes due first. The earliest occupied slot start across all
    levels is mirrored into ``engine._wheel_min`` so the engine's run
    loop can test "is a wheel slot due?" with one int compare.
    """

    __slots__ = ("engine", "live", "_levels", "_push", "_heap")

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        #: Number of non-cancelled timers currently parked in the wheel.
        self.live = 0
        # Per level: (shift, {slot_idx: [Event, ...]}, min-heap of slot idx).
        self._levels = tuple((shift, {}, []) for shift in SHIFTS)
        # The engine's heap push, bound once: push(heap, entry) (called
        # through locals, see Port.__init__).
        self._push, self._heap = engine._pusher

    def add(self, event: "Event", base: int = -1) -> None:
        """File ``event`` by its deadline.

        ``base`` is the reference time for level selection (defaults
        to the engine clock). A deadline inside the current slot goes
        straight to the heap — the wheel could not buffer it any
        cheaper than the heap can.
        """
        engine = self.engine
        if base < 0:
            base = engine.now
        time = event.time
        delta = time - base
        if delta < _SPAN0:
            level = 0
        elif delta < _SPAN1:
            level = 1
        else:
            level = 2
        shift, buckets, order = self._levels[level]
        idx = time >> shift
        if idx <= base >> shift:
            push, heap = self._push, self._heap
            push(heap, (time, event.seq, event))
            return
        bucket = buckets.get(idx)
        if bucket is None:
            buckets[idx] = [event]
            heappush(order, idx)
            start = idx << shift
            if start < engine._wheel_min:
                engine._wheel_min = start
        else:
            bucket.append(event)
        event.in_wheel = True
        self.live += 1

    def flush(self, limit: int) -> None:
        """Materialise every slot whose start is <= ``limit``.

        Live timers with deadlines at or before ``limit`` end up in the
        engine heap; coarser-level timers due later cascade into finer
        slots (level selection is re-based on ``limit``, so a timer
        never re-enters the slot being drained); cancelled timers are
        dropped. Recomputes ``engine._wheel_min`` when done.
        """
        engine = self.engine
        push, heap = self._push, self._heap
        for level in (2, 1, 0):
            shift, buckets, order = self._levels[level]
            while order and (order[0] << shift) <= limit:
                idx = heappop(order)
                for event in buckets.pop(idx):
                    if event.cancelled:
                        continue
                    self.live -= 1
                    event.in_wheel = False
                    if level:
                        self.add(event, base=limit)
                    else:
                        push(heap, (event.time, event.seq, event))
        wheel_min = NEVER
        for shift, _buckets, order in self._levels:
            if order:
                start = order[0] << shift
                if start < wheel_min:
                    wheel_min = start
        engine._wheel_min = wheel_min

    def total_entries(self) -> int:
        """Parked entries including cancelled ones (memory footprint)."""
        return sum(
            len(bucket)
            for _shift, buckets, _order in self._levels
            for bucket in buckets.values()
        )
