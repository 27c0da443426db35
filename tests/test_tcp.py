"""Behavioral tests for TCP NewReno + SACK on the simulator."""

from repro.sim.units import MILLIS
from repro.transport.base import TransportConfig

from tests.util import DropFilter, run_flow, small_star


def test_flow_completes_and_fct_reasonable():
    net = small_star()
    sender, receiver, record = run_flow(net, "tcp", size=100_000)
    assert record.completed
    assert sender.completed
    # 100 kB at 40G through 2 hops: well under a millisecond.
    assert record.fct_ns < 1_000_000


def test_one_segment_flow():
    net = small_star()
    _, _, record = run_flow(net, "tcp", size=500)
    assert record.completed
    assert record.tx_bytes == 500


def test_zero_loss_means_zero_retransmissions():
    net = small_star()
    sender, _, record = run_flow(net, "tcp", size=500_000)
    assert record.retx_bytes == 0
    assert record.timeouts == 0


def test_slow_start_doubles_window():
    net = small_star()
    sender, _, record = run_flow(net, "tcp", size=2_000_000)
    # After a loss-free 2 MB transfer the window grew well beyond IW10.
    assert sender.cwnd > 20 * sender.mss


def test_cwnd_capped_at_max():
    net = small_star()
    config = TransportConfig(base_rtt_ns=4_000, max_cwnd_bytes=100_000)
    sender, _, record = run_flow(net, "tcp", size=3_000_000, config=config)
    assert record.completed
    assert sender.cwnd <= 100_000


def test_middle_loss_recovers_without_timeout():
    """A hole in the middle triggers SACK-based early retransmit."""
    net = small_star()
    DropFilter(net.switches[0]).drop_seq_once(1460 * 3)
    _, _, record = run_flow(net, "tcp", size=100_000)
    assert record.completed
    assert record.timeouts == 0
    assert record.retx_bytes >= 1460


def test_loss_halves_window():
    net = small_star()
    drop = DropFilter(net.switches[0])
    drop.drop_seq_once(1460 * 3)
    sender, _, record = run_flow(net, "tcp", size=60_000)
    assert record.completed
    assert sender.ssthresh < 1 << 59  # recovery was entered


def test_tail_loss_causes_timeout_without_tlt():
    """Losing the very last segment leaves nothing to trigger dupacks:
    only the RTO recovers it — the paper's core motivation."""
    net = small_star()
    size = 14_600  # 10 segments = exactly the initial window
    drop = DropFilter(net.switches[0])
    drop.drop_seq_once(1460 * 9)
    config = TransportConfig(base_rtt_ns=4_000)  # the default recovery: RTO_min 4 ms
    _, _, record = run_flow(net, "tcp", size=size, config=config)
    assert record.completed
    assert record.timeouts >= 1
    assert record.fct_ns > 4 * MILLIS  # paid at least one RTO


def test_whole_window_loss_causes_timeout():
    net = small_star()
    drop = DropFilter(net.switches[0])
    for i in range(10):
        drop.drop_seq_once(1460 * i)
    _, _, record = run_flow(net, "tcp", size=14_600)
    assert record.completed
    assert record.timeouts >= 1


def test_timeout_collapses_window_to_one_mss():
    net = small_star()
    drop = DropFilter(net.switches[0])
    for i in range(10):
        drop.drop_seq_once(1460 * i)
    captured = {}
    from repro.transport.tcp import TcpSender

    original = TcpSender._on_timeout

    def spy(self):
        original(self)
        captured.setdefault("cwnd_after", self.cwnd)

    TcpSender._on_timeout = spy
    try:
        _, _, record = run_flow(net, "tcp", size=14_600)
    finally:
        TcpSender._on_timeout = original
    assert captured["cwnd_after"] == 1460


def test_exponential_backoff_on_repeated_timeouts():
    """Dropping the retransmissions too forces doubling RTOs."""
    net = small_star()
    drop = DropFilter(net.switches[0])
    # First segment dropped three times in a row.
    for _ in range(3):
        drop.drop_seq_once(0)
    config = TransportConfig(recovery={"name": "rto", "min_ns": 1 * MILLIS},
                             base_rtt_ns=4_000)
    _, _, record = run_flow(net, "tcp", size=1460, config=config)
    assert record.completed
    assert record.timeouts == 3
    # 1 + 2 + 4 ms of backoff before success.
    assert record.fct_ns > 6 * MILLIS


def test_fixed_rto_config():
    net = small_star()
    drop = DropFilter(net.switches[0])
    drop.drop_seq_once(0)
    config = TransportConfig(recovery={"name": "fixed-rto", "rto_ns": 200_000},
                             base_rtt_ns=4_000)
    _, _, record = run_flow(net, "tcp", size=1460, config=config)
    assert record.completed
    assert record.timeouts == 1
    assert record.fct_ns < 1 * MILLIS  # recovered by the 200 us timer


def test_rtt_samples_recorded():
    net = small_star()
    run_flow(net, "tcp", size=50_000)
    assert net.stats.rtt_samples_fg
    assert min(net.stats.rtt_samples_fg) >= 4_000  # at least base RTT


def test_delivery_samples_recorded():
    net = small_star()
    run_flow(net, "tcp", size=50_000)
    assert net.stats.delivery_samples


def test_receiver_completion_callback():
    calls = []
    net = small_star()
    from repro.transport.base import FlowSpec, TransportConfig
    from repro.transport.registry import create_flow

    spec = FlowSpec(
        flow_id=net.new_flow_id(), src=0, dst=1, size=10_000,
        on_complete_rx=lambda rec: calls.append(("rx", rec.flow_id)),
        on_complete_ack=lambda rec: calls.append(("ack", rec.flow_id)),
    )
    create_flow("tcp", net, spec, TransportConfig(base_rtt_ns=4_000))
    net.engine.run()
    assert ("rx", spec.flow_id) in calls
    assert ("ack", spec.flow_id) in calls
    # rx completion happens before the final ACK returns to the sender.
    assert calls.index(("rx", spec.flow_id)) < calls.index(("ack", spec.flow_id))
