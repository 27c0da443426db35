"""Protocol tests for window-based TLT (§5.1, Algorithm 1, Fig 3)."""

from repro.core.config import ClockingPolicy, TltConfig
from repro.net.packet import Color, PacketKind, TltMark
from repro.sim import backend
from repro.sim.units import MILLIS
from repro.transport.base import FlowSpec, TransportConfig
from repro.transport.registry import create_flow

from tests.util import DropFilter, PacketTap, run_flow, small_star


class Tap:
    """Record every packet traversing the switch."""

    def __init__(self, switch):
        self.packets = []
        PacketTap(switch, lambda packet: self.packets.append((switch.engine.now, packet)))

    def data(self):
        return [p for _, p in self.packets if p.kind == PacketKind.DATA]

    def acks(self):
        return [p for _, p in self.packets if p.kind == PacketKind.ACK]


def test_last_packet_of_initial_window_marked_important():
    net = small_star()
    tap = Tap(net.switches[0])
    run_flow(net, "tcp", size=14_600, tlt=TltConfig())  # 10 segments = IW
    first_burst = tap.data()[:10]
    marks = [p.mark for p in first_burst]
    assert marks[-1] == TltMark.IMPORTANT_DATA
    assert all(m == TltMark.NONE for m in marks[:-1])


def test_short_flow_tail_packet_marked():
    net = small_star()
    tap = Tap(net.switches[0])
    run_flow(net, "tcp", size=3_000, tlt=TltConfig())  # 3 segments
    data = tap.data()
    assert data[len(data) - 1].mark == TltMark.IMPORTANT_DATA or (
        data[2].mark == TltMark.IMPORTANT_DATA
    )


def test_unimportant_data_is_red_important_is_green():
    net = small_star()
    tap = Tap(net.switches[0])
    run_flow(net, "tcp", size=14_600, tlt=TltConfig())
    for p in tap.data():
        if p.mark in (TltMark.IMPORTANT_DATA, TltMark.IMPORTANT_CLOCK_DATA):
            assert p.color == Color.GREEN
        else:
            assert p.color == Color.RED


def test_all_acks_are_green_control():
    net = small_star()
    tap = Tap(net.switches[0])
    run_flow(net, "tcp", size=14_600, tlt=TltConfig())
    assert tap.acks()
    assert all(p.color == Color.GREEN for p in tap.acks())


def test_important_echo_generated_for_important_data():
    net = small_star()
    tap = Tap(net.switches[0])
    run_flow(net, "tcp", size=14_600, tlt=TltConfig())
    echo_marks = [p.mark for p in tap.acks()]
    assert TltMark.IMPORTANT_ECHO in echo_marks


def test_one_important_in_flight_invariant():
    """At any instant at most one important (data or echo) packet of a
    flow is in the network (§5.1). Algorithm 1's invariant, so on every
    backend that is built, whatever ``TLT_BACKEND`` says: the compiled
    one places the mark from C."""
    traces = []
    for name in backend.available_backends():
        backend.set_backend(name)
        try:
            net = small_star()
        finally:
            backend.set_backend(None)
        events = []
        switch = net.switches[0]

        def tapped(packet):
            if packet.mark in (
                TltMark.IMPORTANT_DATA,
                TltMark.IMPORTANT_ECHO,
                TltMark.IMPORTANT_CLOCK_DATA,
                TltMark.IMPORTANT_CLOCK_ECHO,
            ):
                events.append((net.engine.now, packet.mark, packet.kind))

        PacketTap(switch, tapped)
        run_flow(net, "tcp", size=300_000, tlt=TltConfig())
        # Data and echo important events must alternate: an important data
        # packet is only sent after the previous echo came back.
        kinds = [k for _, _, k in events]
        assert len(kinds) >= 10
        for a, b in zip(kinds, kinds[1:]):
            assert a != b, f"two consecutive important packets of the same kind on {name}"
        traces.append(events)
    assert all(trace == traces[0] for trace in traces)


def test_tail_loss_recovered_without_timeout():
    """Fig 3(a): losing unimportant packets between two important ones
    is detected via the Important Echo, not the RTO."""
    net = small_star()
    drop = DropFilter(net.switches[0])
    drop.drop_seq_once(1460 * 7)  # a late (but unimportant) segment
    _, _, record = run_flow(net, "tcp", size=14_600, tlt=TltConfig())
    assert record.completed
    assert record.timeouts == 0
    assert record.fct_ns < 1 * MILLIS


def test_whole_window_loss_recovered_without_timeout():
    """Even losing every red packet of the initial window leaves the
    green important packet to clock recovery."""
    net = small_star()
    drop = DropFilter(net.switches[0])
    for i in range(9):  # drop the 9 unimportant segments, keep the 10th
        drop.drop_seq_once(1460 * i)
    _, _, record = run_flow(net, "tcp", size=14_600, tlt=TltConfig())
    assert record.completed
    assert record.timeouts == 0


def test_repeated_retransmission_loss_recovered_by_clocking():
    """Fig 3(b): the retransmission is lost again; important
    ACK-clocking keeps recovery alive without the RTO."""
    net = small_star()
    drop = DropFilter(net.switches[0])
    drop.drop_seq_once(1460)  # original
    drop.drop_seq_once(1460)  # first retransmission too
    _, _, record = run_flow(net, "tcp", size=14_600, tlt=TltConfig())
    assert record.completed
    assert record.timeouts == 0
    assert record.fct_ns < 2 * MILLIS


def test_clock_echo_below_una_suppressed():
    """Important Clock Echoes that do not advance snd_una must not feed
    duplicate ACKs to congestion control (Appendix A)."""
    net = small_star()
    spec = FlowSpec(flow_id=net.new_flow_id(), src=0, dst=1, size=14_600)
    config = TransportConfig(base_rtt_ns=4_000)
    sender, receiver = create_flow("tcp", net, spec, config, TltConfig())
    suppressed = []
    original = sender.tlt.on_ack

    def spy(packet):
        keep = original(packet)
        if not keep:
            suppressed.append(packet)
        return keep

    sender.tlt.on_ack = spy
    drop = DropFilter(net.switches[0])
    for i in range(10):
        drop.drop_seq_once(1460 * i)
    # With everything dropped the first clocking rounds produce
    # duplicate clock echoes in some interleavings; the flow must
    # still complete and suppressed echoes must not be counted as
    # dupacks (no spurious recovery beyond the real loss).
    net.engine.run()
    assert net.stats.flows[spec.flow_id].completed
    for packet in suppressed:
        assert packet.mark == TltMark.IMPORTANT_CLOCK_ECHO


def test_adaptive_clocking_uses_one_byte_without_loss():
    """When no loss is indicated, clocking sends 1 byte (§5.1)."""
    net = small_star()
    tap = Tap(net.switches[0])
    # max_cwnd of 2 segments forces window-blocked clocking.
    config = TransportConfig(base_rtt_ns=4_000, max_cwnd_bytes=2 * 1460,
                             init_cwnd_segments=2)
    run_flow(net, "tcp", size=30_000, tlt=TltConfig(), config=config)
    clock_pkts = [p for p in tap.data() if p.mark == TltMark.IMPORTANT_CLOCK_DATA]
    assert clock_pkts
    assert any(p.payload == 1 for p in clock_pkts)


def test_always_mtu_policy_sends_full_segments():
    net = small_star()
    tap = Tap(net.switches[0])
    config = TransportConfig(base_rtt_ns=4_000, max_cwnd_bytes=2 * 1460,
                             init_cwnd_segments=2)
    run_flow(
        net, "tcp", size=30_000,
        tlt=TltConfig(clocking=ClockingPolicy.ALWAYS_MTU), config=config,
    )
    clock_pkts = [p for p in tap.data() if p.mark == TltMark.IMPORTANT_CLOCK_DATA]
    assert clock_pkts
    assert all(p.payload > 1 for p in clock_pkts)


def test_always_1b_policy_never_sends_full_segments():
    net = small_star()
    tap = Tap(net.switches[0])
    drop = DropFilter(net.switches[0])
    drop.drop_seq_once(1460 * 5)
    config = TransportConfig(base_rtt_ns=4_000, max_cwnd_bytes=4 * 1460,
                             init_cwnd_segments=4)
    _, _, record = run_flow(
        net, "tcp", size=30_000,
        tlt=TltConfig(clocking=ClockingPolicy.ALWAYS_1B), config=config,
    )
    clock_pkts = [p for p in tap.data() if p.mark == TltMark.IMPORTANT_CLOCK_DATA]
    assert record.completed
    assert clock_pkts
    assert all(p.payload == 1 for p in clock_pkts)


def test_clocking_bytes_accounted():
    net = small_star()
    config = TransportConfig(base_rtt_ns=4_000, max_cwnd_bytes=2 * 1460,
                             init_cwnd_segments=2)
    run_flow(net, "tcp", size=30_000, tlt=TltConfig(), config=config)
    assert net.stats.clocking_packets > 0
    assert net.stats.clocking_bytes > 0


def test_important_fraction_small_for_long_flow():
    """Only ~1 packet per RTT is important: a long flow's important
    byte fraction must be small (§5 goal: mark as few as possible)."""
    net = small_star()
    run_flow(net, "tcp", size=2_000_000, tlt=TltConfig())
    assert 0 < net.stats.important_fraction_bytes() < 0.2


def test_dctcp_with_tlt_no_timeout_under_tail_loss():
    # Segment 9 is the Important Data tail; drop segment 8 (red).
    net = small_star()
    drop = DropFilter(net.switches[0])
    drop.drop_seq_once(1460 * 8)
    _, _, record = run_flow(net, "dctcp", size=14_600, tlt=TltConfig())
    assert record.completed
    assert record.timeouts == 0


def test_important_packet_loss_falls_back_to_rto():
    """TLT does not handle green losses (non-congestion events are out
    of scope, §5): dropping the Important Data itself costs an RTO."""
    net = small_star()
    drop = DropFilter(net.switches[0])
    drop.drop_seq_once(1460 * 9)  # the marked tail of the initial window
    _, _, record = run_flow(net, "dctcp", size=14_600, tlt=TltConfig())
    assert record.completed
    assert record.timeouts >= 1
