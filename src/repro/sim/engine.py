"""The discrete-event engine.

A single binary heap orders events by ``(time, sequence)``. The sequence
number breaks ties deterministically in scheduling order, which makes a
whole simulation a pure function of its inputs and RNG seeds.

Hot-path layout: heap entries are plain ``(time, seq, event)`` tuples.
``seq`` is unique per engine, so ``heapq``'s sift compares never reach
the third element — every comparison is a C-level int compare instead
of a Python ``__lt__`` call. The :class:`Event` object is only the
cancellation handle riding along in the tuple.

Events are callbacks. Cancellation is done lazily (the event is flagged
and skipped when popped) which keeps heap operations O(log n); the
engine counts dead heap entries and compacts the heap in place when
more than half of it is cancelled, so timer-churn-heavy runs do not
hold O(all-cancelled-events) memory.

Coarse, frequently rescheduled timers (RTOs, PFC pause expiry, DCQCN
rate timers) should use :meth:`Engine.schedule_timer`, which parks them
in a hierarchical timer wheel (:mod:`repro.sim.timerwheel`) instead of
the heap. A wheel timer that is cancelled before its slot comes due —
the overwhelmingly common case for retransmission timers — never
touches the heap at all. Timers fire in exactly the same ``(time,
seq)`` order the heap would have used, so results are bit-identical.
"""

from __future__ import annotations

import gc
import heapq
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional

from repro.sim.timerwheel import NEVER, TimerWheel


class SimulationError(RuntimeError):
    """Raised on misuse of the engine (e.g. scheduling in the past)."""


#: GC thresholds applied while ``Engine.run`` executes (restored on
#: exit). The simulator allocates acyclic objects (events, packets,
#: tuples) at a very high rate; the CPython default gen-0 threshold of
#: 700 makes the collector scan the young generation tens of thousands
#: of times per simulated second for nothing. On top of the thresholds
#: the cyclic collector itself is paused for the duration of the run:
#: everything the hot path allocates (heap tuples, events, pooled
#: packets, segments) is acyclic and dies by refcount; reference cycles
#: only exist among long-lived topology objects, which outlive the run
#: anyway and are swept by the caller's collector afterwards.
_GC_RUN_THRESHOLDS = (100_000, 20, 20)


#: Set by the first :func:`freeze_program` call.
_frozen = False


def freeze_program() -> None:
    """Once per process: one full collection, then ``gc.freeze()``.

    Everything still alive then (the imported program: modules,
    classes, functions, their tables) moves to the permanent generation,
    so the full collection before each run walks only what runs
    allocated. Call it first thing in a run entry point, from a frame
    that holds no run state: whatever is reachable at the freeze stays
    uncollected for the life of the process, a cycle included.
    A flag remembers the freeze: ``gc.get_freeze_count()`` walks the
    whole permanent generation on every call.
    """
    global _frozen
    if not _frozen:
        _frozen = True
        gc.collect()
        gc.freeze()


#: When not ``None``, ``Engine.run`` attributes wall time per event
#: callback into this table as ``{qualname: [calls, total_ns]}``. Set
#: via :func:`repro.sim.backend.set_attribution` (``tlt-experiment --profile``).
_ATTRIBUTION: Optional[Dict[str, List[int]]] = None

#: Base of the wire-delivery sequence space. Ordinary events draw
#: sequence numbers from the engine's global counter (push order); link
#: deliveries and PFC frames instead carry ``WIRE_SEQ_BASE +
#: (port_rank << 33) + per_port_count`` (see ``repro.net.link``). Two
#: same-nanosecond wire arrivals are therefore ordered by a key that is
#: a pure function of (which port emitted, how many frames it emitted
#: before) — computable identically by a single engine or by the shard
#: that owns the emitting port, which is what makes sharded execution
#: (``repro.sim.sharding``) bit-identical. The base keeps every wire
#: key above any realistic global counter value, so at one nanosecond
#: locally-scheduled events (timers, transport callbacks, tx_done)
#: always execute before wire arrivals.
WIRE_SEQ_BASE = 1 << 50


def set_attribution(table: Optional[Dict[str, List[int]]]) -> None:
    """Install (or clear) the global per-callback attribution table.

    Takes effect on the next :meth:`Engine.run` call; the un-attributed
    hot loop pays nothing for the feature.
    """
    global _ATTRIBUTION
    _ATTRIBUTION = table


class Event:
    """A scheduled callback. Returned by :meth:`Engine.schedule`.

    Use :meth:`cancel` to revoke it; cancelled events are skipped.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "in_wheel", "engine")

    def __init__(self, time: int, seq: int, fn: Callable[..., Any], args: tuple,
                 engine: Optional["Engine"] = None):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.in_wheel = False
        self.engine = engine

    def cancel(self) -> None:
        """Revoke the event. Safe to call more than once or after firing
        (the run loop clears ``engine`` when the event fires)."""
        if self.cancelled:
            return
        self.cancelled = True
        if self.engine is not None:
            self.engine._note_cancel(self)

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        where = " wheel" if self.in_wheel else ""
        return f"<Event t={self.time} #{self.seq} {getattr(self.fn, '__qualname__', self.fn)}{where}{state}>"


class Engine:
    """Discrete-event simulation engine with an integer-nanosecond clock."""

    #: Heap compaction trigger: compact when at least this many dead
    #: entries make up more than half of the heap.
    COMPACT_MIN_DEAD = 64

    def __init__(self) -> None:
        self._queue: list = []  # (time, seq, Event) tuples
        self._seq = 0
        self.now: int = 0
        self._running = False
        self._events_processed = 0
        self._heap_dead = 0  # cancelled entries still in the heap
        self._wheel_min = NEVER  # earliest occupied wheel slot start
        self._wheel = TimerWheel(self)
        # Construction-order rank handed to each Port; identical
        # topologies built on fresh engines assign identical ranks,
        # which anchors the WIRE_SEQ_BASE key space (see link.py).
        self._port_rank = 0

    # -- scheduling ----------------------------------------------------------

    def schedule(self, delay: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` ns from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} ns in the past")
        time = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, fn, args, self)
        heapq.heappush(self._queue, (time, seq, event))
        return event

    def schedule_at(self, time: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute simulated time ``time`` ns."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time}, current time is {self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, fn, args, self)
        heapq.heappush(self._queue, (time, seq, event))
        return event

    def schedule_anon(self, delay: int, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` with no cancellation handle.

        For internal hot paths (packet serialization/propagation) that
        never cancel: the heap entry is a bare ``(time, seq, fn, args)``
        tuple, skipping :class:`Event` allocation. Ordering is identical
        to :meth:`schedule` — the same seq counter is used.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} ns in the past")
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (self.now + delay, seq, fn, args))

    def schedule_timer(self, delay: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule a coarse timer ``delay`` ns from now.

        Semantically identical to :meth:`schedule` — same ``(time,
        seq)`` firing order, same :class:`Event` handle — but the event
        is parked in the hierarchical timer wheel until its slot comes
        due. Use it for timers that are usually cancelled or
        rescheduled before firing (RTOs, PFC pause expiry, DCQCN rate
        timers): cancel/reschedule then costs O(1) and never floods the
        heap with dead entries.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} ns in the past")
        return self.schedule_timer_at(self.now + delay, fn, *args)

    def schedule_timer_at(self, time: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Absolute-time variant of :meth:`schedule_timer`."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time}, current time is {self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, fn, args, self)
        self._wheel.add(event)
        return event

    def _push(self, entry: tuple) -> None:
        """Push a raw heap entry, ``(time, seq, event)`` or ``(time, seq,
        fn, args)``: how the timer wheel, the ports and sharding add
        events (``CEngine`` keeps the same entries in a C array)."""
        heapq.heappush(self._queue, entry)

    @property
    def _pusher(self) -> tuple:
        """``(push, target)`` with ``push(target, entry)`` doing
        :meth:`_push`: bound once by a hot pusher, it is one direct
        ``heappush`` call per entry here."""
        return heapq.heappush, self._queue

    # -- cancellation bookkeeping ---------------------------------------------

    def _note_cancel(self, event: Event) -> None:
        """Called by :meth:`Event.cancel`; tracks dead entries and
        compacts the heap when over half of it is cancelled."""
        if event.in_wheel:
            self._wheel.live -= 1
            return
        dead = self._heap_dead + 1
        self._heap_dead = dead
        if dead >= self.COMPACT_MIN_DEAD and dead * 2 > len(self._queue):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify, in place (the run
        loop aliases the heap list, so the list object must survive).
        Anonymous 4-tuple entries are never cancelled and always kept."""
        queue = self._queue
        queue[:] = [e for e in queue if len(e) == 4 or not e[2].cancelled]
        heapq.heapify(queue)
        self._heap_dead = 0

    # -- execution -----------------------------------------------------------

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run until the queue drains, ``until`` ns is reached, or
        ``max_events`` events have been processed.

        Returns the number of events processed by this call. When
        ``until`` is given the call always ends with ``now ==
        max(now, until)``, whether or not future events remain queued —
        unless ``max_events`` stopped it before every event at or
        before ``until`` was processed (advancing past unprocessed
        events would run them in the past).
        """
        if self._running:
            raise SimulationError("engine is not reentrant")
        self._running = True
        processed = 0
        queue = self._queue
        wheel = self._wheel
        pop = heapq.heappop
        attr = _ATTRIBUTION
        # Sentinels keep per-event None-checks out of the loop.
        horizon = until if until is not None else NEVER
        stop_at = max_events if max_events is not None else -1
        gc_prev = gc.get_threshold()
        gc_was_enabled = gc.isenabled()
        gc.set_threshold(*_GC_RUN_THRESHOLDS)
        gc.disable()
        push = heapq.heappush
        try:
            while True:
                if queue:
                    # Pop eagerly; the boundary cases (wheel slot due,
                    # horizon reached) push the entry back. They happen
                    # a handful of times per run, the pop per event.
                    entry = pop(queue)
                    time = entry[0]
                    if self._wheel_min <= time:
                        push(queue, entry)
                        wheel.flush(time)
                        continue
                    if time > horizon:
                        push(queue, entry)
                        break
                    if len(entry) == 4:
                        fn = entry[2]
                        args = entry[3]
                    else:
                        event = entry[2]
                        if event.cancelled:
                            self._heap_dead -= 1
                            continue
                        event.engine = None  # fired: no heap entry to cancel
                        fn = event.fn
                        args = event.args
                    self.now = time
                    if attr is None:
                        fn(*args)
                    else:
                        t0 = perf_counter_ns()
                        fn(*args)
                        dt = perf_counter_ns() - t0
                        key = getattr(fn, "__qualname__", None) or repr(fn)
                        rec = attr.get(key)
                        if rec is None:
                            attr[key] = [1, dt]
                        else:
                            rec[0] += 1
                            rec[1] += dt
                    processed += 1
                    if processed == stop_at:
                        break
                else:
                    wmin = self._wheel_min
                    if wmin == NEVER or wmin > horizon:
                        break
                    wheel.flush(wmin)
        finally:
            self._running = False
            gc.set_threshold(*gc_prev)
            if gc_was_enabled:
                gc.enable()
        if until is not None and self.now < until:
            next_time = self.peek_time()
            if next_time is None or next_time > until:
                self.now = until
        self._events_processed += processed
        return processed

    def run_window(self, until: int) -> int:
        """Run one conservative-lookahead window: every event with
        ``time <= until``, then set ``now = until``.

        The barrier-stepping primitive used by :mod:`repro.sim.sharding`
        worker engines. Semantically :meth:`run`'s ``until`` path — same
        pop loop, same wheel flushing, same end-of-window clock rule —
        but without the per-call GC threshold dance and per-callback
        attribution: a sharded worker steps thousands of small windows
        per run, so per-window setup must be near-zero (the worker
        manages GC once around its whole barrier loop instead).
        """
        if self._running:
            raise SimulationError("engine is not reentrant")
        self._running = True
        processed = 0
        queue = self._queue
        wheel = self._wheel
        pop = heapq.heappop
        push = heapq.heappush
        try:
            while True:
                if queue:
                    entry = pop(queue)
                    time = entry[0]
                    if self._wheel_min <= time:
                        push(queue, entry)
                        wheel.flush(time)
                        continue
                    if time > until:
                        push(queue, entry)
                        break
                    if len(entry) == 4:
                        fn = entry[2]
                        args = entry[3]
                    else:
                        event = entry[2]
                        if event.cancelled:
                            self._heap_dead -= 1
                            continue
                        event.engine = None  # fired: no heap entry to cancel
                        fn = event.fn
                        args = event.args
                    self.now = time
                    fn(*args)
                    processed += 1
                else:
                    wmin = self._wheel_min
                    if wmin == NEVER or wmin > until:
                        break
                    wheel.flush(wmin)
        finally:
            self._running = False
        if self.now < until:
            next_time = self.peek_time()
            if next_time is None or next_time > until:
                self.now = until
        self._events_processed += processed
        return processed

    def step(self) -> bool:
        """Process exactly one (non-cancelled) event. Returns False if idle."""
        return self.run(max_events=1) == 1

    # -- introspection ---------------------------------------------------------

    @property
    def pending(self) -> int:
        """Number of *live* (not cancelled) events still queued,
        including wheel-resident timers. Cancelled events awaiting lazy
        removal are not counted."""
        live = len(self._queue) - self._heap_dead + self._wheel.live
        return live if live > 0 else 0

    @property
    def pending_total(self) -> int:
        """Queued entries including cancelled ones awaiting lazy
        removal — the actual memory footprint of the schedule."""
        return len(self._queue) + self._wheel.total_entries()

    @property
    def events_processed(self) -> int:
        """Total events executed over the engine's lifetime."""
        return self._events_processed

    def peek_time(self) -> Optional[int]:
        """Timestamp of the next live event, or None when idle."""
        queue = self._queue
        while True:
            while queue and len(queue[0]) == 3 and queue[0][2].cancelled:
                heapq.heappop(queue)
                self._heap_dead -= 1
            wmin = self._wheel_min
            if wmin == NEVER or (queue and queue[0][0] < wmin):
                break
            # A wheel slot may hold the earliest live event: flush it
            # into the heap (cancelled wheel timers die here).
            self._wheel.flush(queue[0][0] if queue else wmin)
        return queue[0][0] if queue else None
