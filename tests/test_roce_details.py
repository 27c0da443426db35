"""Finer-grained RoCE behaviors: CNP rate limiting, IRN RTO value,
INT on multi-hop paths, DCQCN+TLT+PFC combination."""

import random

from repro.core.config import TltConfig
from repro.net.packet import PacketKind
from repro.net.topology import TopologyParams, leaf_spine
from repro.switchsim.ecn import RedEcn
from repro.switchsim.pfc import PfcConfig
from repro.switchsim.switch import SwitchConfig
from repro.transport.base import FlowSpec, TransportConfig
from repro.transport.registry import create_flow

from tests.util import PacketTap, run_flow, small_star


def cfg(**kw):
    kw.setdefault("base_rtt_ns", 4_000)
    return TransportConfig(**kw)


def test_cnp_rate_limited_to_one_per_interval():
    """CE on every packet, but at most one CNP per 50 us per flow."""
    net = small_star(ecn=RedEcn(0, 1, 1.0, random.Random(1)))  # mark everything
    cnps = []
    switch = net.switches[0]
    def tap(packet):
        if packet.kind == PacketKind.CNP:
            cnps.append(net.engine.now)

    PacketTap(switch, tap)
    _, _, record = run_flow(net, "dcqcn", size=400_000, config=cfg())
    assert record.completed
    assert cnps, "expected CNPs under universal marking"
    gaps = [b - a for a, b in zip(cnps, cnps[1:])]
    assert all(gap >= 50_000 for gap in gaps)


def test_irn_uses_rto_high():
    net = small_star()
    spec = FlowSpec(flow_id=net.new_flow_id(), src=0, dst=1, size=10_000)
    sender, _ = create_flow("irn", net, spec, cfg())
    assert sender.rto.base_rto == 1_930_000  # IRN's recommended RTO_high


def test_dcqcn_uses_static_4ms_rto():
    net = small_star()
    spec = FlowSpec(flow_id=net.new_flow_id(), src=0, dst=1, size=10_000)
    sender, _ = create_flow("dcqcn", net, spec, cfg())
    assert sender.rto.base_rto == 4_000_000


def test_hpcc_int_stack_has_one_record_per_switch_hop():
    params = TopologyParams(
        link_delay_ns=1_000,
        switch_config=SwitchConfig(buffer_bytes=1_000_000, int_enabled=True),
    )
    net = leaf_spine(num_spines=1, num_tors=2, hosts_per_tor=2, params=params)
    int_lengths = []
    receiver_host = net.host(3)
    def tap(packet):
        if packet.kind == PacketKind.DATA and packet.int_records is not None:
            int_lengths.append(len(packet.int_records))

    PacketTap(receiver_host, tap)
    spec = FlowSpec(flow_id=net.new_flow_id(), src=0, dst=3, size=20_000)
    create_flow("hpcc", net, spec, cfg())
    net.engine.run()
    assert int_lengths
    # Path host0 -> tor0 -> spine -> tor1 -> host3: three switch hops.
    assert all(n == 3 for n in int_lengths)


def test_dcqcn_tlt_pfc_combination_lossless_for_green():
    net = small_star(
        num_hosts=9,
        buffer_bytes=400_000,
        color_threshold_bytes=100_000,
        pfc=PfcConfig(enabled=True),
        ecn=RedEcn(5_000, 200_000, 0.01, random.Random(5)),
    )
    for src in range(1, 9):
        spec = FlowSpec(flow_id=net.new_flow_id(), src=src, dst=0, size=100_000)
        create_flow("dcqcn", net, spec, cfg(), TltConfig())
    net.engine.run(until=5_000_000_000)
    assert net.stats.incomplete_flows() == 0
    assert net.stats.drops_green == 0
    assert net.stats.timeouts == 0


def test_roce_flows_over_leaf_spine_complete():
    params = TopologyParams(
        link_delay_ns=1_000,
        switch_config=SwitchConfig(buffer_bytes=1_000_000, int_enabled=True),
    )
    net = leaf_spine(num_spines=2, num_tors=2, hosts_per_tor=2, params=params)
    specs = []
    for variant, (src, dst) in zip(
        ("dcqcn", "dcqcn-sack", "irn", "hpcc"), ((0, 2), (1, 3), (2, 0), (3, 1))
    ):
        spec = FlowSpec(flow_id=net.new_flow_id(), src=src, dst=dst, size=50_000)
        create_flow(variant, net, spec, cfg())
        specs.append(spec)
    net.engine.run(until=5_000_000_000)
    assert all(net.stats.flows[s.flow_id].completed for s in specs)
