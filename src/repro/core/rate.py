"""TLT for rate-based transports (§5.2).

Rate-based transports transmit continuously, so there is no ACK clock
to protect. Instead TLT marks as important:

1. the **last packet of the message** — as long as it arrives, the
   receiver can detect any earlier gap and NACK immediately;
2. optionally **every N-th packet** of long flows (timely detection
   when a long run of unimportant packets is lost; the paper sets N to
   the fabric's maximum fan-out, 96);
3. the **first and last packet of every retransmission round** — the
   first retransmitted packet is the special case of Fig 4: if it is
   lost again the receiver's repeated NACK is indistinguishable from
   the first one and only a timeout would recover.
"""

from __future__ import annotations

from typing import Optional, Set

from repro.core.config import TltConfig
from repro.core.marks import _GREEN_MARKS
from repro.net.packet import Color, Packet, TltMark
from repro.stats.collector import NetStats


# Per-packet constants as module globals (no enum attribute lookups).
_IMPORTANT_DATA = TltMark.IMPORTANT_DATA
_GREEN = Color.GREEN
_RED = Color.RED


class TltRateSender:
    """Sender-side rate-based TLT controller."""

    def __init__(self, sender, config: TltConfig, stats: NetStats):
        self.sender = sender
        self.config = config
        self.stats = stats
        self.round_edges: Set[int] = set()
        sender.tlt_rate = self

    def mark_data(self, packet: Packet, psn: int) -> None:
        """Decide the mark for an outgoing data packet."""
        periodic_n = self.config.periodic_n
        if psn == self.sender.npkts - 1:
            packet.mark = _IMPORTANT_DATA  # last packet of the message
        elif psn in self.round_edges:
            packet.mark = _IMPORTANT_DATA  # edge of a retransmission round
            self.round_edges.discard(psn)
        elif periodic_n and (psn + 1) % periodic_n == 0:
            packet.mark = _IMPORTANT_DATA  # periodic marking for long flows
        # apply_acl, open-coded: once per data transmission.
        stats = self.stats
        if packet.mark in _GREEN_MARKS:
            packet.color = _GREEN
            stats.green_data_packets += 1
            stats.green_data_bytes += packet.payload
        else:
            packet.color = _RED
            stats.red_data_packets += 1
            stats.red_data_bytes += packet.payload

    def on_retx_round(self, first_psn: int, last_psn: int) -> None:
        """A retransmission round starts: protect its first and last packet."""
        self.round_edges.add(first_psn)
        self.round_edges.add(last_psn)


def attach_rate_tlt(
    sender,
    receiver,
    config: Optional[TltConfig] = None,
    stats: Optional[NetStats] = None,
) -> TltRateSender:
    """Wire rate-based TLT onto a RoCE sender (receiver needs no state:
    its ACKs/NACKs/CNPs are control packets, green by construction)."""
    config = config or TltConfig()
    stats = stats or sender.stats
    return TltRateSender(sender, config, stats)
