"""Batched link delivery: heap-entry contract + delivery-order property.

The batched path (``repro.net.link`` module docstring) keeps frames in a
per-port in-flight FIFO and arms *one* heap entry per port, keyed by the
FIFO head's ``(arrival_ns, wire_seq)``. These tests pin down:

- the raw tuple layouts the two engines and the compiled kernels agree
  on — ``(time, seq, fn, args)`` anonymous heap entries and
  ``(arrival_ns, wire_seq, kind, payload)`` in-flight entries — so a
  field reorder cannot slip through as "just a refactor";
- the *armed iff non-empty* invariant of the in-flight deque;
- the ordering property the whole design rests on: for any emission
  schedule, including adversarial same-nanosecond bursts, frames are
  delivered in the ``(time, wire_seq)`` pop order one heap entry per
  frame would give — every frame exactly one propagation delay after
  its emission, same-nanosecond frames in emission order — and
  ``events_processed`` counts one event per frame, not per drain call.
"""

import random

import pytest

from repro.net.link import FRAME_PACKET, FRAME_PAUSE, Port, connect
from repro.sim import backend
from repro.sim.engine import WIRE_SEQ_BASE, Engine
from repro.sim.units import tx_time_ns

RATE = 100_000_000_000  # 100 Gbps
DELAY = 1_000  # ns


class _Device:
    """Minimal port owner: records deliveries, transmits nothing."""

    def __init__(self, engine):
        self.engine = engine
        self.log = []

    def poll(self, port):
        return None

    def receive(self, packet, port):
        self.log.append((self.engine.now, "data", packet))

    def receive_pause(self, duration_ns, port):
        self.log.append((self.engine.now, "pause", duration_ns))


class _FramePacket:
    """Stand-in wire frame (only ``size`` is read by the port)."""

    __slots__ = ("size", "label")

    def __init__(self, label, size=1500):
        self.size = size
        self.label = label


def _link():
    """A unidirectional a->b link with stub devices on both ends."""
    engine = Engine()
    tx, rx = _Device(engine), _Device(engine)
    a = Port(engine, tx, 0, RATE, DELAY)
    b = Port(engine, rx, 0, RATE, DELAY)
    connect(a, b)
    return engine, a, rx


# -- tuple-layout contract ---------------------------------------------------


def test_serialization_heap_entry_layout():
    engine, a, _rx = _link()
    packet = _FramePacket("p0")
    a.owner.poll = lambda port: packet  # one packet, then busy stays set
    a.kick()
    entry = engine._queue[0]
    assert isinstance(entry, tuple) and len(entry) == 4
    time, seq, fn, args = entry
    assert time == engine.now + tx_time_ns(packet.size, RATE)
    assert seq < WIRE_SEQ_BASE  # engine sequence numbers, not wire keys
    assert fn is a._tx_cb
    assert args == (packet,)


def test_inflight_entry_and_drain_arming_layout():
    engine, a, _rx = _link()
    packet = _FramePacket("p0")
    first_seq = a.wire_seq
    assert first_seq >= WIRE_SEQ_BASE  # per-port band above engine seqs
    a._tx_cb(packet)

    # In-flight FIFO entry: (arrival_ns, wire_seq, kind, payload).
    assert list(a._inflight) == [(engine.now + DELAY, first_seq, FRAME_PACKET, packet)]
    # Armed drain entry keyed by the FIFO head, with the shared empty
    # args tuple: (head_arrival, head_wire_seq, drain_cb, ()).
    assert engine._queue[0] == (engine.now + DELAY, first_seq, a._drain_cb, ())

    # A second emission extends the FIFO without re-arming.
    a._tx_cb(_FramePacket("p1"))
    assert len(a._inflight) == 2
    assert a._inflight[1][1] == first_seq + 1  # contiguous wire sequence
    assert len(engine._queue) == 1


def test_pause_frame_rides_the_inflight_fifo():
    engine, a, rx = _link()
    seq = a.wire_seq
    a.send_pause(500)
    assert list(a._inflight) == [(engine.now + DELAY, seq, FRAME_PAUSE, 500)]
    # One drain armed at the head's arrival (engines hold their heaps
    # differently: asserted through what both show).
    assert engine.pending_total == 1 and engine.peek_time() == engine.now + DELAY
    engine.run()
    assert rx.log == [(DELAY, "pause", 500)] and not a._inflight


def test_drain_rearms_before_emptying():
    # armed iff non-empty: after draining the head, the next head must
    # be re-armed; after draining everything, no drain entry remains.
    engine, a, rx = _link()
    a._tx_cb(_FramePacket("p0"))
    engine.run(max_events=1)
    assert not a._inflight and not engine._queue
    assert [kind for _, kind, _ in rx.log] == ["data"]


# -- delivery-order property -------------------------------------------------


def _run_schedule(schedule):
    """Emit ``schedule`` on one port; return (delivery log, event count).

    ``schedule`` is a list of ``(emit_ns, kind, label)`` sorted by time;
    emissions are scheduled before the run in list order, so same-ns
    emissions fire — and take wire sequence numbers — in list order.
    """
    engine, a, rx = _link()
    for emit_ns, kind, label in schedule:
        if kind == "data":
            engine.schedule_anon(emit_ns, a._tx_cb, _FramePacket(label))
        else:
            engine.schedule_anon(emit_ns, a.send_pause, label)
    engine.run()
    log = [(t, kind, p.label if kind == "data" else p) for t, kind, p in rx.log]
    return log, engine.events_processed


def _random_schedule(rng, frames):
    # Times drawn from a deliberately tiny set so same-ns emission
    # bursts (hence same-ns arrival bursts) are common, not rare.
    times = sorted(rng.choice(range(0, 40, 4)) for _ in range(frames))
    schedule = []
    for i, t in enumerate(times):
        if rng.random() < 0.3:
            schedule.append((t, "pause", rng.choice([0, 100, 500, 65535])))
        else:
            schedule.append((t, "data", f"f{i}"))
    return schedule


@pytest.mark.parametrize("seed", range(20))
def test_batched_matches_unbatched_pop_order(seed):
    rng = random.Random(seed)
    schedule = _random_schedule(rng, frames=40)
    log, events = _run_schedule(schedule)
    # One heap entry per frame, keyed (emit_ns + DELAY, wire_seq), pops
    # in schedule order: arrival times are monotone in emission time and
    # wire sequence numbers are handed out in emission order.
    assert log == [(emit_ns + DELAY, kind, label) for emit_ns, kind, label in schedule]
    # One emission event plus one delivery event per frame: the drain
    # compensates events_processed for every extra frame of a burst.
    assert events == 2 * len(schedule)


def test_same_ns_burst_delivers_in_wire_sequence_order():
    # All frames emitted at the same instant arrive in the same ns; the
    # single drain call must deliver them in emission (wire-seq) order.
    schedule = [(10, "data", "a"), (10, "pause", 500), (10, "data", "b"),
                (10, "data", "c"), (10, "pause", 0)]
    log, _ = _run_schedule(schedule)
    assert log == [(10 + DELAY, "data", "a"), (10 + DELAY, "pause", 500),
                   (10 + DELAY, "data", "b"), (10 + DELAY, "data", "c"),
                   (10 + DELAY, "pause", 0)]


# -- the compiled port kernel ------------------------------------------------


def _compiled_link():
    """``_link`` on a ``CEngine`` with ``PortKernel``s bound, as
    ``optimize_network`` binds them."""
    ck = backend._compiled_module()
    engine = ck.CEngine()
    tx, rx = _Device(engine), _Device(engine)
    a = Port(engine, tx, 0, RATE, DELAY)
    b = Port(engine, rx, 0, RATE, DELAY)
    connect(a, b)
    for port in (a, b):
        kernel = ck.PortKernel(port)
        port._tx_cb, port._drain_cb = kernel.tx_done, kernel.drain
    return engine, a, rx


@pytest.mark.skipif(not backend.compiled_available(), reason="compiled backend not built")
@pytest.mark.parametrize("seed", range(5))
def test_port_kernel_delivers_like_the_pure_port(seed, monkeypatch):
    """The schedules above through ``CEngine`` + ``PortKernel``: spaced
    frames are delivered from C, a same-ns burst (on a network only a PFC
    frame beside data) is handed to the pure ``Port._drain`` whole. No
    benchmark workload and no other tier-1 test produces one."""
    monkeypatch.setitem(globals(), "_link", _compiled_link)
    test_batched_matches_unbatched_pop_order(seed)
    test_same_ns_burst_delivers_in_wire_sequence_order()
    test_pause_frame_rides_the_inflight_fifo()
