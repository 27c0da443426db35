"""Tests for traffic-class isolation (incremental deployment, §5.3)."""

import random

from repro.core.config import TltConfig
from repro.net.packet import Color, Packet, PacketKind
from repro.switchsim.ecn import RedEcn
from repro.transport.base import FlowSpec, TransportConfig
from repro.transport.registry import create_flow

from tests.util import DropFilter, PacketTap, small_star


def _data(flow, src, dst, tclass=0, color=Color.GREEN, seq=0):
    pkt = Packet(flow, src, dst, PacketKind.DATA, seq=seq, payload=1452)
    pkt.tclass = tclass
    pkt.color = color
    return pkt


class Collector:
    def __init__(self):
        self.packets = []

    def on_packet(self, packet):
        self.packets.append(packet)


def test_classes_use_separate_queues():
    net = small_star(num_traffic_classes=2, buffer_bytes=500_000)
    switch = net.switches[0]
    sink = Collector()
    net.host(2).register_endpoint(9, sink)
    for i in range(4):
        net.host(0).send(_data(9, 0, 2, tclass=0, seq=i))
        net.host(1).send(_data(9, 1, 2, tclass=1, seq=i))
    net.engine.run(max_events=10)
    q0 = switch.queue_for(switch.fib.lookup(2, 9), 0)
    q1 = switch.queue_for(switch.fib.lookup(2, 9), 1)
    assert q0.max_occupancy > 0
    assert q1.max_occupancy > 0
    net.engine.run()
    assert len(sink.packets) == 8


def test_round_robin_serves_both_classes():
    net = small_star(num_traffic_classes=2, buffer_bytes=500_000)
    sink = Collector()
    net.host(2).register_endpoint(9, sink)
    # Saturate from two hosts into one egress with distinct classes.
    for i in range(10):
        net.host(0).send(_data(9, 0, 2, tclass=0, seq=i))
        net.host(1).send(_data(9, 1, 2, tclass=1, seq=i + 100))
    net.engine.run()
    # Interleaving: the first ten arrivals are not all one class.
    first_ten = {p.tclass for p in sink.packets[:10]}
    assert first_ten == {0, 1}


def test_color_dropping_limited_to_configured_classes():
    net = small_star(
        num_traffic_classes=2,
        color_threshold_bytes=3_000,
        color_classes=(0,),
        buffer_bytes=500_000,
    )
    sink = Collector()
    net.host(2).register_endpoint(9, sink)
    net.host(2).register_endpoint(8, sink)
    for i in range(10):
        net.host(0).send(_data(9, 0, 2, tclass=0, color=Color.RED, seq=i))
        net.host(1).send(_data(8, 1, 2, tclass=1, color=Color.RED, seq=i))
    net.engine.run()
    # Class-0 red packets were shed; class-1 (legacy) reds untouched.
    assert net.stats.drops_red > 0
    delivered_class1 = [p for p in sink.packets if p.tclass == 1]
    assert len(delivered_class1) == 10


def test_invalid_tclass_falls_back_to_class0():
    net = small_star(num_traffic_classes=2, buffer_bytes=500_000)
    sink = Collector()
    net.host(2).register_endpoint(9, sink)
    net.host(0).send(_data(9, 0, 2, tclass=7))
    net.engine.run()
    assert len(sink.packets) == 1


def test_transport_stamps_traffic_class():
    net = small_star(num_traffic_classes=2, buffer_bytes=500_000)
    seen = []
    switch = net.switches[0]
    PacketTap(switch, lambda packet: seen.append(packet.tclass))
    config = TransportConfig(base_rtt_ns=4_000, traffic_class=1)
    spec = FlowSpec(flow_id=net.new_flow_id(), src=0, dst=1, size=10_000)
    create_flow("tcp", net, spec, config)
    net.engine.run()
    assert seen and all(t == 1 for t in seen)


def test_tlt_and_legacy_coexist_with_isolation():
    """Mixed deployment: TLT flows in class 0 (color-aware), legacy
    flows in class 1 (no coloring) — legacy traffic must not be
    red-dropped and both complete."""
    net = small_star(
        num_hosts=9,
        num_traffic_classes=2,
        color_threshold_bytes=60_000,
        color_classes=(0,),
        buffer_bytes=600_000,
    )
    tlt_cfg = TransportConfig(base_rtt_ns=4_000, traffic_class=0)
    legacy_cfg = TransportConfig(base_rtt_ns=4_000, traffic_class=1)
    for src in range(1, 5):
        spec = FlowSpec(flow_id=net.new_flow_id(), src=src, dst=0, size=150_000, group="fg")
        create_flow("dctcp", net, spec, tlt_cfg, TltConfig())
    for src in range(5, 9):
        spec = FlowSpec(flow_id=net.new_flow_id(), src=src, dst=0, size=150_000, group="bg")
        create_flow("dctcp", net, spec, legacy_cfg)
    net.engine.run(until=5_000_000_000)
    assert net.stats.incomplete_flows() == 0


def test_roce_flow_sends_every_packet_kind_in_its_class():
    """DCQCN data, ACKs, NACKs and CNPs all carry the flow's class."""
    net = small_star(num_traffic_classes=2, buffer_bytes=500_000,
                     ecn=RedEcn(2_000, 10_000, 1.0, random.Random(3)))
    switch = net.switches[0]
    seen = []
    PacketTap(switch, lambda packet: seen.append((packet.kind, packet.tclass)))
    DropFilter(switch).drop_seq_once(5)  # one gap: a go-back-N NACK
    config = TransportConfig(base_rtt_ns=4_000, traffic_class=1)
    for src in (0, 1):  # two senders into one port: CE marks, CNPs
        spec = FlowSpec(flow_id=net.new_flow_id(), src=src, dst=2, size=200_000)
        create_flow("dcqcn", net, spec, config)
    net.engine.run()
    assert net.stats.incomplete_flows() == 0
    kinds = {kind for kind, _ in seen}
    assert {PacketKind.DATA, PacketKind.ACK, PacketKind.NACK, PacketKind.CNP} <= kinds
    assert {tclass for _, tclass in seen} == {1}
