"""Behavioral tests for DCTCP."""

from repro.switchsim.ecn import StepEcn
from repro.transport.base import FlowSpec, TransportConfig
from repro.transport.registry import create_flow

from tests.util import run_flow, small_star


def dctcp_star(**kwargs):
    kwargs.setdefault("ecn", StepEcn(30_000))
    return small_star(**kwargs)


def test_flow_completes():
    net = dctcp_star()
    _, _, record = run_flow(net, "dctcp", size=200_000)
    assert record.completed
    assert record.timeouts == 0


def test_sender_sets_ect_and_receives_echo():
    net = dctcp_star(ecn=StepEcn(2_000))
    # Two senders congest the shared egress so marking kicks in.
    config = TransportConfig(base_rtt_ns=4_000)
    specs = [
        FlowSpec(flow_id=net.new_flow_id(), src=src, dst=2, size=400_000)
        for src in (0, 1)
    ]
    senders = [create_flow("dctcp", net, s, config)[0] for s in specs]
    net.engine.run()
    assert net.stats.ecn_marks > 0
    assert any(s._acked_marked > 0 or s.alpha > 0 for s in senders)


def test_alpha_decays_without_marks():
    net = dctcp_star()
    sender, _, _ = run_flow(net, "dctcp", size=500_000)
    # Alpha starts at 1.0 and decays every unmarked window.
    assert sender.alpha < 1.0


def test_congestion_keeps_queue_near_kecn():
    """DCTCP's steady-state queue oscillates around K_ECN."""
    k = 30_000
    net = dctcp_star(ecn=StepEcn(k), buffer_bytes=2_000_000)
    config = TransportConfig(base_rtt_ns=4_000)
    for src in (0, 1):
        spec = FlowSpec(flow_id=net.new_flow_id(), src=src, dst=2, size=2_000_000)
        create_flow("dctcp", net, spec, config)
    net.engine.run()
    max_q = net.switches[0].max_queue_occupancy()
    # Queue exceeded K (marking lags an RTT) but stayed well below the
    # loss-driven level a Reno flow would reach (~ buffer cap).
    assert k < max_q < 600_000


def test_dctcp_reduces_proportionally_not_by_half():
    """With light marking, DCTCP's reduction is far gentler than 50%."""
    net = dctcp_star(ecn=StepEcn(30_000), buffer_bytes=2_000_000)
    config = TransportConfig(base_rtt_ns=4_000)
    spec = FlowSpec(flow_id=net.new_flow_id(), src=0, dst=2, size=3_000_000)
    sender, _ = create_flow("dctcp", net, spec, config)
    windows = []

    original = sender.cc_on_ack

    def spy(newly_acked, ecn_echo):
        before = sender.cwnd
        original(newly_acked, ecn_echo)
        if sender.cwnd != before:
            windows.append((before, sender.cwnd))

    sender.cc_on_ack = spy
    # A competing flow to build the queue.
    spec2 = FlowSpec(flow_id=net.new_flow_id(), src=1, dst=2, size=3_000_000)
    create_flow("dctcp", net, spec2, config)
    net.engine.run()
    assert windows, "expected at least one ECN-driven reduction"
    # Every reduction must satisfy new >= old * (1 - alpha/2) >= old/2.
    assert all(after >= before // 2 for before, after in windows)


def test_ecn_fraction_tracks_marking():
    net = dctcp_star(ecn=StepEcn(10_000), buffer_bytes=2_000_000)
    config = TransportConfig(base_rtt_ns=4_000)
    senders = []
    for src in (0, 1):
        spec = FlowSpec(flow_id=net.new_flow_id(), src=src, dst=2, size=1_000_000)
        senders.append(create_flow("dctcp", net, spec, config)[0])
    net.engine.run()
    assert all(0.0 <= s.alpha <= 1.0 for s in senders)
