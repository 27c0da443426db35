"""Tests for optional connection setup/teardown (SYN/FIN modeling)."""

from repro.core.config import TltConfig
from repro.net.packet import Color, PacketKind, TltMark
from repro.sim.units import MILLIS
from repro.transport.base import TransportConfig

from tests.util import DropFilter, PacketTap, run_flow, small_star

import pytest

# Taps in this module retain Packet objects across the run.
pytestmark = pytest.mark.usefixtures("no_packet_pool")



class Tap:
    def __init__(self, switch):
        self.packets = []
        PacketTap(switch, self.packets.append)

    def kinds(self):
        return [p.kind for p in self.packets]


def hs_config(**kw):
    kw.setdefault("handshake", True)
    kw.setdefault("base_rtt_ns", 4_000)
    return TransportConfig(**kw)


def test_handshake_flow_completes_with_syn_and_fin():
    net = small_star()
    tap = Tap(net.switches[0])
    _, _, record = run_flow(net, "tcp", size=10_000, config=hs_config())
    assert record.completed
    kinds = tap.kinds()
    assert kinds[0] == PacketKind.SYN
    assert kinds[1] == PacketKind.SYN_ACK
    assert PacketKind.FIN in kinds
    # Data only flows after the handshake.
    assert kinds.index(PacketKind.SYN_ACK) < kinds.index(PacketKind.DATA)


def test_handshake_adds_one_rtt():
    net_a = small_star()
    _, _, plain = run_flow(net_a, "tcp", size=10_000,
                           config=TransportConfig(base_rtt_ns=4_000))
    net_b = small_star()
    _, _, with_hs = run_flow(net_b, "tcp", size=10_000, config=hs_config())
    assert with_hs.fct_ns > plain.fct_ns
    assert with_hs.fct_ns - plain.fct_ns < 100_000  # ~1 RTT, not more


def test_control_packets_are_green():
    net = small_star()
    tap = Tap(net.switches[0])
    run_flow(net, "tcp", size=5_000, config=hs_config(), tlt=TltConfig())
    control = [p for p in tap.packets
               if p.kind in (PacketKind.SYN, PacketKind.SYN_ACK, PacketKind.FIN)]
    assert control
    assert all(p.color == Color.GREEN for p in control)
    assert all(p.mark == TltMark.CONTROL for p in control)


def test_syn_loss_retransmitted():
    net = small_star()
    drop = DropFilter(net.switches[0])
    drop.drop_once(lambda p: p.kind == PacketKind.SYN)
    config = hs_config(recovery={"name": "rto", "min_ns": 1 * MILLIS})
    _, _, record = run_flow(net, "tcp", size=5_000, config=config)
    assert record.completed
    assert record.timeouts == 1
    assert record.fct_ns > 1 * MILLIS


def test_syn_ack_loss_retransmitted():
    net = small_star()
    drop = DropFilter(net.switches[0])
    drop.drop_once(lambda p: p.kind == PacketKind.SYN_ACK)
    config = hs_config(recovery={"name": "rto", "min_ns": 1 * MILLIS})
    _, _, record = run_flow(net, "tcp", size=5_000, config=config)
    assert record.completed
    assert record.timeouts >= 1


def test_duplicate_syn_ack_harmless():
    net = small_star()
    drop = DropFilter(net.switches[0])
    # Drop the first SYN *after* the switch: receiver never sees it.
    # Instead exercise the idempotent path: let both a retransmitted
    # SYN and its duplicate SYN-ACK arrive.
    config = hs_config(recovery={"name": "rto", "min_ns": 1 * MILLIS})
    sender, receiver, record = run_flow(net, "tcp", size=5_000, config=config)
    # Manually inject an extra (stale) SYN at the receiver.
    from repro.net.packet import Packet

    stale = Packet(record.flow_id, record.src, record.dst, PacketKind.SYN)
    receiver.on_packet(stale)
    net.engine.run()
    assert record.completed


def test_handshake_with_dctcp_and_tlt():
    net = small_star()
    _, _, record = run_flow(net, "dctcp", size=20_000, config=hs_config(ecn=True),
                            tlt=TltConfig())
    assert record.completed
    assert record.timeouts == 0
