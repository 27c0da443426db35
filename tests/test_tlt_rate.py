"""Protocol tests for rate-based TLT (§5.2, Fig 4)."""

from repro.core.config import TltConfig
from repro.net.packet import Color, Packet, PacketKind, TltMark
from repro.sim.units import MILLIS
from repro.transport.base import FlowSpec, TransportConfig
from repro.transport.registry import create_flow

from tests.util import DropFilter, PacketTap, run_flow, small_star

import pytest

# Taps in this module retain Packet objects across the run.
pytestmark = pytest.mark.usefixtures("no_packet_pool")



class Tap:
    def __init__(self, switch):
        self.packets = []
        PacketTap(switch, self.packets.append)

    def data(self):
        return [p for p in self.packets if p.kind == PacketKind.DATA]


def cfg():
    return TransportConfig(base_rtt_ns=4_000)


def test_last_packet_of_message_marked_important():
    net = small_star()
    tap = Tap(net.switches[0])
    run_flow(net, "dcqcn", size=20_000, tlt=TltConfig(), config=cfg())
    data = tap.data()
    last = [p for p in data if p.seq == 19]
    assert last and last[0].mark == TltMark.IMPORTANT_DATA
    # All other first-transmission packets unimportant.
    assert all(
        p.mark == TltMark.NONE for p in data if p.seq < 19 and not p.is_retx
    )


def test_periodic_marking_every_n():
    net = small_star()
    tap = Tap(net.switches[0])
    run_flow(
        net, "dcqcn", size=100_000,
        tlt=TltConfig(periodic_n=10), config=cfg(),
    )
    marked = {p.seq for p in tap.data() if p.mark == TltMark.IMPORTANT_DATA}
    # PSNs 9, 19, ..., 99 periodic plus the tail.
    assert {9, 19, 29}.issubset(marked)


def test_periodic_marking_disabled_with_none():
    net = small_star()
    tap = Tap(net.switches[0])
    run_flow(
        net, "dcqcn", size=100_000,
        tlt=TltConfig(periodic_n=None), config=cfg(),
    )
    marked = {p.seq for p in tap.data() if p.mark == TltMark.IMPORTANT_DATA}
    assert marked == {99}


def test_retransmission_round_marks_first_and_last():
    """Fig 4: when a retransmission round starts, both its first and
    last packets are important."""
    net = small_star()
    tap = Tap(net.switches[0])
    drop = DropFilter(net.switches[0])
    drop.drop_seq_once(3)
    drop.drop_seq_once(4)
    run_flow(net, "dcqcn", size=20_000, tlt=TltConfig(periodic_n=None), config=cfg())
    retx = [p for p in tap.data() if p.is_retx]
    assert retx
    # The go-back-N round restarts from 3; its first packet is marked.
    assert any(p.seq == 3 and p.mark == TltMark.IMPORTANT_DATA for p in retx)


def test_lost_first_retransmission_recovers_without_timeout():
    """The Fig 4 pathology: packet 3 lost, its retransmission lost too.
    With TLT the (green) retransmission cannot be congestion-dropped by
    the switch; here we emulate a surviving green mark by checking the
    round edges are green so the scenario cannot recur."""
    net = small_star()
    tap = Tap(net.switches[0])
    drop = DropFilter(net.switches[0])
    drop.drop_seq_once(3)
    run_flow(net, "dcqcn", size=20_000, tlt=TltConfig(periodic_n=None), config=cfg())
    retx = [p for p in tap.data() if p.is_retx and p.seq == 3]
    assert retx and retx[0].color == Color.GREEN


def test_rate_tlt_control_packets_green():
    net = small_star()
    tap = Tap(net.switches[0])
    run_flow(net, "dcqcn", size=20_000, tlt=TltConfig(), config=cfg())
    control = [p for p in tap.packets if p.kind != PacketKind.DATA]
    assert control
    assert all(p.color == Color.GREEN for p in control)


def test_unimportant_data_red():
    net = small_star()
    tap = Tap(net.switches[0])
    run_flow(net, "dcqcn", size=20_000, tlt=TltConfig(), config=cfg())
    reds = [p for p in tap.data() if p.color == Color.RED]
    greens = [p for p in tap.data() if p.color == Color.GREEN]
    assert reds and greens
    assert len(greens) < len(reds)


def test_stats_count_marked_packets():
    net = small_star()
    run_flow(net, "dcqcn", size=100_000, tlt=TltConfig(periodic_n=None), config=cfg())
    assert net.stats.green_data_packets >= 1
    assert net.stats.red_data_packets == 99
    assert 0 < net.stats.important_fraction_bytes() < 0.05


def test_vanilla_dcqcn_tail_loss_with_tlt_uses_nack_not_timeout():
    """With the last packet green, a mid-flow red loss is detected by
    the receiver's NACK as soon as the important tail arrives."""
    net = small_star(color_threshold_bytes=5_000, buffer_bytes=1_000_000)
    drop = DropFilter(net.switches[0])
    drop.drop_seq_once(18)
    _, _, record = run_flow(net, "dcqcn", size=20_000, tlt=TltConfig(), config=cfg())
    assert record.completed
    assert record.timeouts == 0
    assert record.fct_ns < 4 * MILLIS


def test_retx_round_starts_at_the_head_the_dup_ack_rule_marks_after_sack_holes():
    """§5's first/last-packet rule: a fast-retransmit round whose head is
    marked by the dup-ACK rule after the SACK holes of the same pass
    starts at that head, not at the first hole."""
    net = small_star()
    DropFilter(net.switches[0]).add(lambda packet: True)  # no ACK comes back
    spec = FlowSpec(flow_id=net.new_flow_id(), src=0, dst=1, size=100_000)
    sender, _ = create_flow("dcqcn-sack", net, spec, cfg(), TltConfig())
    net.engine.run(until=2_000)  # PSNs 0..8 are out
    sender._transmit(sender.entries[0])  # the head goes out again ...
    net.engine.run(until=net.engine.now + 5_000)  # ... and ages past SRTT
    rounds = []
    on_retx_round = sender.tlt_rate.on_retx_round
    sender.tlt_rate.on_retx_round = lambda first, last: (
        rounds.append((first, last)), on_retx_round(first, last))
    # A duplicate ACK SACKing PSNs 3-4: PSNs 1 and 2 are holes (rule 1),
    # the aged head PSN 0 falls to the dup-ACK rule (rule 2).
    ack = Packet(spec.flow_id, 1, 0, PacketKind.ACK, 0, 0, 0)
    ack.sack = ((3, 5),)
    sender.on_packet(ack)
    assert [entry.start for entry in sender.lost_queue] == [1, 2, 0]
    assert rounds == [(0, 2)]
