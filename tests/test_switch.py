"""Tests for the switch: admission, color-aware dropping, ECN, INT."""

import dataclasses

import pytest

from repro.net.packet import Color, Packet, PacketKind
from repro.net.topology import star, TopologyParams
from repro.sim import backend
from repro.sim.units import GBPS
from repro.switchsim.ecn import StepEcn
from repro.switchsim.switch import SwitchConfig


def make_star(num_hosts=3, **cfg_kwargs):
    config = SwitchConfig(**cfg_kwargs)
    params = TopologyParams(switch_config=config, link_delay_ns=1000)
    return star(num_hosts=num_hosts, params=params)


class Collector:
    def __init__(self):
        self.packets = []

    def on_packet(self, packet):
        self.packets.append(packet)


def _data(flow, src, dst, payload=1452, color=Color.GREEN, seq=0):
    pkt = Packet(flow, src, dst, PacketKind.DATA, seq=seq, payload=payload)
    pkt.color = color
    return pkt


def test_forwarding_between_hosts():
    net = make_star()
    sink = Collector()
    net.host(2).register_endpoint(9, sink)
    net.host(0).send(_data(9, 0, 2))
    net.engine.run()
    assert len(sink.packets) == 1


def test_red_packets_dropped_beyond_color_threshold():
    # Two senders into one egress build a queue; color threshold of
    # 3 kB allows only two 1.5 kB red packets to occupy it.
    net = make_star(buffer_bytes=100_000, color_threshold_bytes=3_000)
    sink = Collector()
    net.host(2).register_endpoint(9, sink)
    net.host(2).register_endpoint(8, sink)
    for i in range(10):
        net.host(0).send(_data(9, 0, 2, color=Color.RED, seq=i))
        net.host(1).send(_data(8, 1, 2, color=Color.RED, seq=i))
    net.engine.run()
    assert net.stats.drops_red > 0
    assert len(sink.packets) + net.stats.drops_red == 20


def test_green_packets_queue_beyond_color_threshold():
    net = make_star(buffer_bytes=100_000, color_threshold_bytes=3_000)
    sink = Collector()
    net.host(2).register_endpoint(9, sink)
    for i in range(10):
        net.host(0).send(_data(9, 0, 2, color=Color.GREEN, seq=i))
    net.engine.run()
    assert net.stats.drops_green == 0
    assert len(sink.packets) == 10


def test_red_occupancy_never_exceeds_threshold():
    threshold = 6_000
    net = make_star(buffer_bytes=100_000, color_threshold_bytes=threshold)
    for i in range(50):
        net.host(0).send(_data(9, 0, 2, color=Color.RED, seq=i))
    net.engine.run()
    assert net.switches[0].max_red_occupancy() <= threshold


def test_dynamic_threshold_drops_when_pool_pressured():
    # Tiny pool: a burst from two hosts to one egress must drop.
    net = make_star(buffer_bytes=20_000)
    for i in range(20):
        net.host(0).send(_data(9, 0, 2, seq=i))
        net.host(1).send(_data(8, 1, 2, seq=i))
    net.engine.run()
    assert net.stats.drops_green > 0


def test_buffer_accounting_returns_to_zero():
    net = make_star(buffer_bytes=100_000)
    for i in range(20):
        net.host(0).send(_data(9, 0, 2, seq=i))
    net.engine.run()
    assert net.switches[0].buffer.used == 0


def test_ecn_marking_applied_to_capable_packets():
    net = make_star(buffer_bytes=200_000, ecn=StepEcn(2_000))
    sink = Collector()
    net.host(2).register_endpoint(9, sink)
    for i in range(10):
        for src in (0, 1):
            pkt = _data(9, src, 2, seq=i)
            pkt.ecn_capable = True
            net.host(src).send(pkt)
    net.engine.run()
    assert any(p.ce for p in sink.packets)
    assert net.stats.ecn_marks > 0


def test_ecn_not_applied_to_non_capable_packets():
    net = make_star(buffer_bytes=200_000, ecn=StepEcn(2_000))
    sink = Collector()
    net.host(2).register_endpoint(9, sink)
    for i in range(10):
        net.host(0).send(_data(9, 0, 2, seq=i))
    net.engine.run()
    assert not any(p.ce for p in sink.packets)


def test_int_records_appended_when_enabled():
    net = make_star(buffer_bytes=200_000, int_enabled=True)
    sink = Collector()
    net.host(2).register_endpoint(9, sink)
    pkt = _data(9, 0, 2)
    pkt.int_records = []  # request INT
    net.host(0).send(pkt)
    net.engine.run()
    records = sink.packets[0].int_records
    assert len(records) == 1
    assert records[0].rate_bps == 40 * GBPS


def test_int_skipped_when_not_requested():
    net = make_star(buffer_bytes=200_000, int_enabled=True)
    sink = Collector()
    net.host(2).register_endpoint(9, sink)
    net.host(0).send(_data(9, 0, 2))
    net.engine.run()
    assert sink.packets[0].int_records is None


def test_max_queue_occupancy_tracked():
    net = make_star(buffer_bytes=200_000)
    for i in range(10):
        net.host(0).send(_data(9, 0, 2, seq=i))
    net.engine.run()
    assert net.switches[0].max_queue_occupancy() > 0


def test_switch_config_is_frozen():
    """The compiled kernel binds the config's fields when it is built:
    nothing may change them behind it."""
    switch = make_star(color_threshold_bytes=3_000).switches[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        switch.config.color_threshold_bytes = None


def _red_burst(net):
    """Twenty red packets from two hosts into one egress."""
    for i in range(10):
        net.host(0).send(_data(9, 0, 2, color=Color.RED, seq=i))
        net.host(1).send(_data(8, 1, 2, color=Color.RED, seq=i))
    net.engine.run()
    return net.stats.drops_red


@pytest.mark.parametrize("name", ["pure", "compiled"])
def test_reconfigure_gives_one_switch_a_new_config_queues_and_kernel(name):
    if name == "compiled" and not backend.compiled_available():
        pytest.skip("compiled backend not built")
    backend.set_backend(name)
    try:
        net = make_star(buffer_bytes=100_000, color_threshold_bytes=3_000)
    finally:
        backend.set_backend(None)
    switch = net.switches[0]
    shared, kernel = switch.config, switch._kernel
    assert (kernel is not None) == (name == "compiled")
    switch.reconfigure(color_threshold_bytes=None, num_traffic_classes=2)
    assert shared.color_threshold_bytes == 3_000 and switch.config is not shared
    assert switch.config.color_threshold_bytes is None and switch.policy.config is switch.config
    assert [len(queues) for queues in switch._port_queues] == [2] * len(switch.ports)
    if kernel is not None:  # the new kernel is the one bound, and reads the new K
        assert switch._kernel is not kernel and switch.receive == switch._kernel.receive
    assert _red_burst(net) == 0
    with pytest.raises(ValueError, match="buffer_bytes"):
        switch.reconfigure(buffer_bytes=1)


def test_reconfigure_refuses_a_switch_with_packets_queued():
    net = make_star(buffer_bytes=100_000)
    switch = net.switches[0]
    switch.ports[2].busy = True  # block egress so the packets stay queued
    net.host(0).send(_data(9, 0, 2))
    net.host(1).send(_data(8, 1, 2))
    net.engine.run()
    assert switch.buffer.used
    with pytest.raises(RuntimeError, match="queued"):
        switch.reconfigure(color_threshold_bytes=None)
