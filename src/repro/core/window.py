"""TLT for window-based transports (§5.1, Algorithm 1).

The controller keeps **exactly one important packet in flight** per
flow:

- the flow starts in the Important state, so the *last* packet of the
  initial window is sent as Important Data;
- the receiver echoes an Important Data packet with an Important Echo
  ACK (sent immediately — the base transports ACK every packet);
- receiving an (Important/Important Clock) Echo re-arms the Important
  state, and the next burst's tail packet is marked Important Data;
- if an ACK leaves the Important state armed but the window/buffer does
  not permit any transmission, the controller performs *important
  ACK-clocking* — injecting an Important Clock Data packet regardless
  of window limits (the switch has reserved room for green packets);
- an Important Clock Echo whose ACK number does not advance ``snd_una``
  is dropped at the TLT layer so it cannot feed a duplicate ACK to
  congestion control (Appendix A).

Echo-based loss detection: an Important Echo acknowledges the important
packet, so everything transmitted before it that is still unSACKed must
have been dropped; those segments are marked lost immediately, giving
the "guaranteed fast loss detection" property of §5.1.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING, Optional

from repro.core.config import ClockingPolicy, TltConfig
from repro.core.marks import _GREEN_MARKS, apply_acl
from repro.net.packet import Color, Packet, TltMark
from repro.stats.collector import NetStats

if TYPE_CHECKING:  # pragma: no cover - repro.transport.registry imports this module
    from repro.transport.base import ByteStreamReceiver, ByteStreamSender


class _SendState(Enum):
    IDLE = 0
    IMPORTANT = 1


class _RecvState(Enum):
    IDLE = 0
    IMPORTANT = 1
    IMPORTANT_CLOCK = 2


class TltWindowSender:
    """Sender-side TLT controller; attach via :func:`attach_window_tlt`."""

    def __init__(self, sender: ByteStreamSender, config: TltConfig, stats: NetStats):
        self.sender = sender
        self.config = config
        self.stats = stats
        self.state = _SendState.IMPORTANT  # mark the initial window's tail
        sender.tlt = self

    # -- transmit-side hooks -----------------------------------------------------

    def mark_data(self, packet: Packet) -> None:
        """Mark a regular data packet; called for every transmission.
        The tail of the burst (the sender's ``_is_last_allowed``) takes
        the important mark, asked only while there is one to place."""
        if self.state is _SendState.IMPORTANT and self.sender._is_last_allowed():
            packet.mark = TltMark.IMPORTANT_DATA
            self.state = _SendState.IDLE
        # apply_acl + _count, inlined: once per data transmission.
        stats = self.stats
        if packet.mark in _GREEN_MARKS:
            packet.color = Color.GREEN
            stats.green_data_packets += 1
            stats.green_data_bytes += packet.payload
        else:
            packet.color = Color.RED
            stats.red_data_packets += 1
            stats.red_data_bytes += packet.payload

    def mark_clock_data(self, packet: Packet) -> None:
        """Mark an important-ACK-clocking packet."""
        packet.mark = TltMark.IMPORTANT_CLOCK_DATA
        self.state = _SendState.IDLE
        apply_acl(packet)
        self._count(packet)
        self.stats.clocking_packets += 1
        self.stats.clocking_bytes += packet.payload

    def _count(self, packet: Packet) -> None:
        if packet.color == Color.GREEN:
            self.stats.green_data_packets += 1
            self.stats.green_data_bytes += packet.payload
        else:
            self.stats.red_data_packets += 1
            self.stats.red_data_bytes += packet.payload

    # -- receive-side hooks -----------------------------------------------------

    def on_ack(self, packet: Packet) -> Optional[int]:
        """First look at an incoming ACK. None ⇒ drop at the TLT layer.

        Otherwise the send time the ACK echoes, -1 when it is no echo.
        An echo's timestamp is the important packet's send time:
        everything sent up to then and still outstanding is lost (FIFO
        paths — anything older must have arrived earlier). The sender
        runs that detection (``mark_lost_sent_before``) after it has
        applied the cumulative ACK and SACK blocks, before its recovery
        decisions.
        """
        mark = packet.mark
        if mark == TltMark.IMPORTANT_ECHO:
            self.state = _SendState.IMPORTANT
            return packet.ts_echo
        if mark == TltMark.IMPORTANT_CLOCK_ECHO:
            self.state = _SendState.IMPORTANT
            if packet.ack <= self.sender.snd_una:
                # Suppress the duplicate ACK (Appendix A) — but still run
                # echo-based loss detection at the TLT layer, otherwise a
                # dropped retransmission is never re-detected and recovery
                # degenerates into the 1-byte-per-RTT crawl of Fig 3(b).
                self.sender.mark_lost_sent_before(packet.ts_echo)
                self.sender.try_send()
                self.after_ack()
                return None
            return packet.ts_echo
        return -1

    def after_ack(self) -> None:
        """Runs after the transport finished its send attempts: if the
        Important state was not consumed, inject a clocking packet."""
        sender = self.sender
        if self.state is not _SendState.IMPORTANT:
            return
        if sender.completed or sender.is_all_acked():
            return  # nothing left to protect
        self._clock()

    # -- clocking ------------------------------------------------------------------

    def _clock(self) -> None:
        sender = self.sender
        policy = self.config.clocking
        loss = sender.has_unrepaired_loss()
        if policy is ClockingPolicy.ALWAYS_MTU or (
            policy is ClockingPolicy.ADAPTIVE and loss
        ):
            # Retransmit 1 MSS of (lost) data to speed up recovery.
            sender.clock_retransmit()
        else:
            # Minimal-footprint 1-byte probe of the first unacked byte.
            sender.clock_one_byte()


class TltWindowReceiver:
    """Receiver-side TLT controller: generates the Echo marks."""

    def __init__(self, receiver: ByteStreamReceiver, stats: NetStats):
        self.receiver = receiver
        self.stats = stats
        self.state = _RecvState.IDLE
        receiver.tlt_rx = self

    def on_data(self, packet: Packet) -> None:
        if packet.mark == TltMark.IMPORTANT_DATA:
            self.state = _RecvState.IMPORTANT
        elif packet.mark == TltMark.IMPORTANT_CLOCK_DATA:
            self.state = _RecvState.IMPORTANT_CLOCK

    def mark_ack(self, ack: Packet) -> None:
        if self.state is _RecvState.IMPORTANT:
            ack.mark = TltMark.IMPORTANT_ECHO
            self.state = _RecvState.IDLE
        elif self.state is _RecvState.IMPORTANT_CLOCK:
            ack.mark = TltMark.IMPORTANT_CLOCK_ECHO
            self.state = _RecvState.IDLE
        apply_acl(ack)


def attach_window_tlt(
    sender: ByteStreamSender,
    receiver: ByteStreamReceiver,
    config: Optional[TltConfig] = None,
    stats: Optional[NetStats] = None,
) -> TltWindowSender:
    """Wire TLT onto a window-based sender/receiver pair."""
    config = config or TltConfig()
    stats = stats or sender.stats
    controller = TltWindowSender(sender, config, stats)
    TltWindowReceiver(receiver, stats)
    return controller
