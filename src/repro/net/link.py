"""Full-duplex links modeled as a pair of unidirectional ports.

A :class:`Port` pulls packets from its owning device (host NIC or
switch egress queue) whenever it is idle and not paused by PFC, fully
serializes each packet at the link rate, then delivers it to the peer
device after the propagation delay (store-and-forward).

Delivery dispatches *through the receiving device at delivery time*:
``owner.receive`` is resolved when the packet lands, so an interceptor
(or audit rebinding) installed while a packet is on the wire still sees
it — capturing the bound receive method at schedule time would silently
bypass anything installed mid-flight. Heap entries stay bare
``(time, seq, fn, args)`` entries pushed through ``Engine._push`` (the
layout of ``Engine.schedule_anon``).

Batched delivery: frames a port puts on the wire are queued
in a per-port in-flight FIFO ``(arrival_ns, wire_seq, kind, payload)``
and the engine heap holds *at most one* entry per port — keyed by the
FIFO head's ``(arrival_ns, wire_seq)`` — whose callback
(:meth:`Port._drain`) delivers the whole same-nanosecond due-burst in
one call instead of one heap transaction per frame. Because each
port's wire sequence numbers are contiguous and its arrival times are
monotone (serialization orders emissions; the propagation delay is
constant), no foreign heap key can sort strictly between two
consecutive in-flight entries of one port, and the per-port
``WIRE_SEQ_BASE`` bands are disjoint — so the burst pops in exactly
the ``(time, wire_seq)`` order one heap entry per frame would give
(property-tested in ``tests/test_link_batching.py``). The invariant is
*deque non-empty ⇔ drain entry armed*: emitters arm the head when they
append to an empty deque, and the drain re-arms the next head *before*
dispatching, so re-entrant emissions during dispatch observe a covered
deque.

PFC PAUSE/RESUME frames are delivered out-of-band: they are tiny, are
sent at the highest priority on real hardware, and modeling them as
instantaneously serialized control messages (propagation delay only) is
the standard simulator simplification. They ride the same in-flight
FIFO (kind 1), preserving their wire-sequence order against data.

Fault injection can take a link administratively *down*
(:meth:`Port.set_link_state`): a down port stops starting new
transmissions until it comes back up. Packets already serialized keep
propagating — the fault layer blackholes them at the receiving device,
which is where a cut fiber actually loses them.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Optional


from repro.sim.engine import WIRE_SEQ_BASE, Engine
from repro.sim.units import tx_time_ns

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import Device
    from repro.net.packet import Packet

#: In-flight FIFO entry kinds (mirrors repro.sim.sharding MSG_*).
FRAME_PACKET = 0
FRAME_PAUSE = 1

#: Shared empty args tuple for drain heap entries.
_EMPTY: tuple = ()


class Port:
    """One direction of a link, owned by the transmitting device."""

    __slots__ = (
        "engine",
        "owner",
        "port_no",
        "peer",
        "rate_bps",
        "delay_ns",
        "busy",
        "paused",
        "down",
        "tx_bytes",
        "tx_packets",
        "pause_frames_rx",
        "paused_ns",
        "_pause_started",
        "_pause_timer",
        "_peer_deliver",
        "wire_seq",
        "cut_id",
        "shard_out",
        "_inflight",
        "_tx_cb",
        "_drain_cb",
        "_epush",
        "_eheap",
    )

    def __init__(self, engine: Engine, owner: "Device", port_no: int, rate_bps: int, delay_ns: int):
        self.engine = engine
        self.owner = owner
        self.port_no = port_no
        self.peer: Optional["Port"] = None
        self.rate_bps = rate_bps
        self.delay_ns = delay_ns
        self.busy = False
        self.paused = False
        self.down = False  # administratively down (fault injection)
        self.tx_bytes = 0
        self.tx_packets = 0
        # PFC bookkeeping (this port being the *paused* side).
        self.pause_frames_rx = 0
        self.paused_ns = 0
        self._pause_started = 0
        self._pause_timer = None
        # Bound `peer._deliver`, cached at connect() time. _drain()
        # resolves the peer inline instead; sharding schedules
        # cross-shard arrivals through this trampoline.
        self._peer_deliver = None
        # Next heap key for frames this port puts on the wire:
        # WIRE_SEQ_BASE + (construction rank << 33) + frames emitted.
        # Same-nanosecond arrivals anywhere in the fabric are thereby
        # ordered by (emitting port, FIFO index) — a key both a single
        # engine and the shard owning this port compute identically —
        # instead of by global push order, which no spatial partition
        # could reproduce.
        rank = engine._port_rank
        engine._port_rank = rank + 1
        self.wire_seq = WIRE_SEQ_BASE + (rank << 33)
        # Sharding (repro.sim.sharding): declared here so CutPort can
        # retarget a built port via __class__ assignment (identical
        # object layout). -1 / None on every port of an unsharded run.
        self.cut_id = -1
        self.shard_out = None
        # Batched delivery state: frames on the wire toward the peer,
        # as (arrival_ns, wire_seq, kind, payload). Invariant: the
        # engine heap holds a (head_arrival, head_seq, self._drain_cb,
        # ()) entry iff this deque is non-empty.
        self._inflight: deque = deque()
        self._drain_cb = self._drain
        # The serialization-complete callback kick() pushes. A slot —
        # not a per-call method resolution — so the compiled backend
        # can substitute a C kernel per port; repro.sim.sharding
        # rebinds it after retargeting a port to CutPort.
        self._tx_cb = self._tx_done
        # The engine's heap push, bound once (Engine._pusher):
        # push(heap, entry) is Engine._push(entry). Called through
        # locals: a call straight off a slot is not specialised.
        self._epush, self._eheap = engine._pusher

    # -- transmission ----------------------------------------------------------

    # The serialization/propagation events below push bare anonymous
    # (time, seq, fn, args) entries through the engine's _push (the
    # layout Engine.schedule_anon makes) instead of calling it: these two
    # or three pushes per transmitted packet are the innermost loop.

    def kick(self) -> None:
        """Try to start transmitting the owner's next packet."""
        if self.busy or self.paused or self.down:
            return
        packet = self.owner.poll(self)
        if packet is None:
            return
        self.busy = True
        self.tx_bytes += packet.size
        self.tx_packets += 1
        engine = self.engine
        seq = engine._seq
        engine._seq = seq + 1
        push, heap = self._epush, self._eheap
        push(
            heap,
            (engine.now + tx_time_ns(packet.size, self.rate_bps), seq, self._tx_cb, (packet,)),
        )

    def _tx_done(self, packet: "Packet") -> None:
        """Serialization finished: put the frame on the wire."""
        engine = self.engine
        push, heap = self._epush, self._eheap
        if self._peer_deliver is not None:
            seq = self.wire_seq
            self.wire_seq = seq + 1
            arrival = engine.now + self.delay_ns
            inflight = self._inflight
            if not inflight:
                push(heap, (arrival, seq, self._drain_cb, _EMPTY))
            inflight.append((arrival, seq, FRAME_PACKET, packet))
        self.busy = False
        # Inlined kick() — this runs once per transmitted packet.
        if self.paused or self.down:
            return
        packet = self.owner.poll(self)
        if packet is None:
            return
        self.busy = True
        self.tx_bytes += packet.size
        self.tx_packets += 1
        seq = engine._seq
        engine._seq = seq + 1
        push(
            heap,
            (engine.now + tx_time_ns(packet.size, self.rate_bps), seq, self._tx_cb, (packet,)),
        )

    def _drain(self) -> None:
        """Deliver this port's due in-flight burst (the armed callback).

        Fires at the FIFO head's exact ``(arrival_ns, wire_seq)`` heap
        key. Every frame whose arrival equals the current instant is
        delivered in FIFO (= wire-sequence) order; the next head, if
        any, is re-armed *before* dispatch so the deque is never
        observably uncovered by re-entrant emissions.
        """
        inflight = self._inflight
        arrival, _seq, kind, payload = inflight.popleft()
        if inflight:
            nxt = inflight[0]
            if nxt[0] == arrival:
                # Same-ns burst (rare: serialization separates frames;
                # only PFC frames can share an arrival ns with data).
                engine = self.engine
                due = [(kind, payload)]
                while inflight and inflight[0][0] == arrival:
                    entry = inflight.popleft()
                    due.append((entry[2], entry[3]))
                if inflight:
                    nxt = inflight[0]
                    push, heap = self._epush, self._eheap
                    push(heap, (nxt[0], nxt[1], self._drain_cb, _EMPTY))
                # Each frame is logically one delivery event:
                # events_processed counts frames, not drain calls.
                engine._events_processed += len(due) - 1
                peer = self.peer
                for kind, payload in due:
                    if kind == FRAME_PACKET:
                        peer.owner.receive(payload, peer)
                    else:
                        peer.owner.receive_pause(payload, peer)
                return
            push, heap = self._epush, self._eheap
            push(heap, (nxt[0], nxt[1], self._drain_cb, _EMPTY))
        peer = self.peer
        if kind == FRAME_PACKET:
            # Resolved here, at delivery time, so the packet traverses
            # whatever interceptor chain / data-path binding is
            # installed when it lands (see module docstring).
            peer.owner.receive(payload, peer)
        else:
            peer.owner.receive_pause(payload, peer)

    def _deliver(self, packet: "Packet") -> None:
        """Hand an arriving packet to the owning device.

        The sharding propagation callback (``self`` is the *receiving*
        side's port; an unsharded run dispatches from :meth:`_drain` on
        the transmitting side instead, with identical delivery-time
        resolution of ``owner.receive``).
        """
        self.owner.receive(packet, self)

    # -- link state (fault injection) ------------------------------------------

    def set_link_state(self, up: bool) -> None:
        """Administratively raise or cut this direction of the link."""
        if up:
            if self.down:
                self.down = False
                self.kick()
        else:
            self.down = True

    # -- PFC -------------------------------------------------------------------

    def send_pause(self, duration_ns: int) -> None:
        """Send a PFC PAUSE (or RESUME when duration is 0) to the peer."""
        if self.peer is None:
            return
        seq = self.wire_seq
        self.wire_seq = seq + 1
        arrival = self.engine.now + self.delay_ns
        inflight = self._inflight
        if not inflight:
            push, heap = self._epush, self._eheap
            push(heap, (arrival, seq, self._drain_cb, _EMPTY))
        inflight.append((arrival, seq, FRAME_PAUSE, duration_ns))

    def apply_pause(self, duration_ns: int) -> None:
        """React to a received PAUSE frame on this (transmitting) port."""
        self.pause_frames_rx += 1
        now = self.engine.now
        if duration_ns <= 0:
            self._resume()
            return
        if not self.paused:
            self.paused = True
            self._pause_started = now
        if self._pause_timer is not None:
            self._pause_timer.cancel()
        self._pause_timer = self.engine.schedule_timer(duration_ns, self._pause_expired)

    def _pause_expired(self) -> None:
        self._pause_timer = None
        self._resume()

    def _resume(self) -> None:
        if self._pause_timer is not None:
            self._pause_timer.cancel()
            self._pause_timer = None
        if self.paused:
            self.paused = False
            self.paused_ns += self.engine.now - self._pause_started
            self.kick()

    # -- misc --------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Port {self.owner}:{self.port_no}>"


def connect(a: Port, b: Port) -> None:
    """Wire two ports together as a full-duplex link."""
    a.peer = b
    b.peer = a
    a._peer_deliver = b._deliver
    b._peer_deliver = a._deliver
