"""Tests for PFC: losslessness, pause frames, HoL blocking."""

from repro.net.topology import TopologyParams, dumbbell
from repro.switchsim.pfc import PfcConfig, max_pause_ns
from repro.switchsim.switch import SwitchConfig
from repro.sim.units import GBPS
from repro.transport.base import FlowSpec, TransportConfig
from repro.transport.registry import create_flow

from tests.util import small_star


def pfc_star(num_hosts=4, **kw):
    kw.setdefault("pfc", PfcConfig(enabled=True))
    return small_star(num_hosts=num_hosts, **kw)


def test_max_pause_duration():
    # 65535 quanta x 512 bit-times at 40 Gb/s ~ 838.8 us.
    assert abs(max_pause_ns(40 * GBPS) - 838_848) < 1000


def test_pfc_prevents_drops_under_incast():
    net = pfc_star(num_hosts=9, buffer_bytes=300_000)
    config = TransportConfig(base_rtt_ns=4_000)
    for src in range(1, 9):
        spec = FlowSpec(flow_id=net.new_flow_id(), src=src, dst=0, size=200_000)
        create_flow("tcp", net, spec, config)
    net.engine.run(until=5_000_000_000)
    assert net.stats.drops_green + net.stats.drops_red == 0
    assert net.stats.pause_frames > 0
    assert net.stats.incomplete_flows() == 0


def test_no_pfc_same_incast_drops():
    net = small_star(num_hosts=9, buffer_bytes=300_000)
    config = TransportConfig(base_rtt_ns=4_000)
    for src in range(1, 9):
        spec = FlowSpec(flow_id=net.new_flow_id(), src=src, dst=0, size=200_000)
        create_flow("tcp", net, spec, config)
    net.engine.run(until=5_000_000_000)
    assert net.stats.drops_green + net.stats.drops_red > 0


def test_pause_time_accounted_on_host_ports():
    net = pfc_star(num_hosts=9, buffer_bytes=300_000)
    config = TransportConfig(base_rtt_ns=4_000)
    for src in range(1, 9):
        spec = FlowSpec(flow_id=net.new_flow_id(), src=src, dst=0, size=200_000)
        create_flow("tcp", net, spec, config)
    net.engine.run(until=5_000_000_000)
    assert net.total_paused_ns() > 0


def test_resume_sent_when_ingress_drains():
    net = pfc_star(num_hosts=9, buffer_bytes=300_000)
    config = TransportConfig(base_rtt_ns=4_000)
    for src in range(1, 9):
        spec = FlowSpec(flow_id=net.new_flow_id(), src=src, dst=0, size=100_000)
        create_flow("tcp", net, spec, config)
    net.engine.run(until=5_000_000_000)
    assert net.stats.resume_frames > 0
    # After the run no port may remain paused.
    for device in list(net.switches) + list(net.hosts):
        for port in device.ports:
            assert not port.paused


def test_hol_blocking_victim_flow():
    """The PFC pathology the paper measures: an incast toward one host
    pauses a sender's ingress, stalling its unrelated flow to an idle
    destination (congestion spreading through HoL blocking)."""
    params = TopologyParams(
        link_delay_ns=1_000,
        switch_config=SwitchConfig(buffer_bytes=150_000, pfc=PfcConfig(enabled=True)),
    )
    net = dumbbell(left_hosts=5, right_hosts=2, params=params)
    config = TransportConfig(base_rtt_ns=8_000)
    # Incast: left hosts 0-3 -> right host 5 (via the trunk).
    for src in range(4):
        spec = FlowSpec(flow_id=net.new_flow_id(), src=src, dst=5, size=400_000)
        create_flow("tcp", net, spec, config)
    # Victim: left host 4 -> right host 6 (shares the trunk ingress).
    victim = FlowSpec(flow_id=net.new_flow_id(), src=4, dst=6, size=50_000, group="bg")
    create_flow("tcp", net, victim, config)
    net.engine.run(until=5_000_000_000)
    record = net.stats.flows[victim.flow_id]
    assert record.completed

    # Baseline: the same victim with an idle network.
    net2 = dumbbell(left_hosts=5, right_hosts=2, params=params)
    victim2 = FlowSpec(flow_id=net2.new_flow_id(), src=4, dst=6, size=50_000, group="bg")
    create_flow("tcp", net2, victim2, config)
    net2.engine.run(until=5_000_000_000)
    solo = net2.stats.flows[victim2.flow_id]
    assert record.fct_ns > 2 * solo.fct_ns  # HoL blocking slowed it down


def test_tlt_reduces_pause_frames():
    """Color-aware dropping sheds red packets before PFC triggers."""
    from repro.core.config import TltConfig

    def run(tlt):
        kw = dict(buffer_bytes=300_000, pfc=PfcConfig(enabled=True))
        if tlt:
            kw["color_threshold_bytes"] = 60_000
        net = pfc_star(num_hosts=9, **kw)
        config = TransportConfig(base_rtt_ns=4_000)
        for src in range(1, 9):
            spec = FlowSpec(flow_id=net.new_flow_id(), src=src, dst=0, size=200_000)
            create_flow("tcp", net, spec, config, TltConfig() if tlt else None)
        net.engine.run(until=5_000_000_000)
        return net.stats.pause_frames

    assert run(tlt=True) < run(tlt=False)


def test_green_packets_never_dropped_with_pfc_plus_tlt():
    from repro.core.config import TltConfig

    net = pfc_star(num_hosts=9, buffer_bytes=300_000, color_threshold_bytes=60_000)
    config = TransportConfig(base_rtt_ns=4_000)
    for src in range(1, 9):
        spec = FlowSpec(flow_id=net.new_flow_id(), src=src, dst=0, size=200_000)
        create_flow("tcp", net, spec, config, TltConfig())
    net.engine.run(until=5_000_000_000)
    assert net.stats.drops_green == 0
    assert net.stats.incomplete_flows() == 0
