"""The host kernel against the Python transports it transcribes.

On the compiled backend the host kernel keeps a byte-stream flow's DATA
and ACK arrivals and its send path in C (``c_receiver_on_packet``,
``c_sender_on_packet``, ``c_sender_burst`` in
``repro/sim/_ckernelmodule.c``; the initial window leaves through the
engine's dispatch of the flow's ``start`` event); ``repro.transport``
and ``repro.core`` stay the reference. Three kinds of test, all on a
2-host star whose switch swallows every packet, so that an endpoint sees
only the packets the test hands to ``host.receive``:

- differential: the same Hypothesis-drawn arrival stream on ``pure`` and
  on ``compiled``, all endpoint state compared after every packet;
- hand-back: each eligibility rule has a case that fails if C runs the
  packet or the burst anyway, and the callbacks that stay Python see the
  calls the Python ``on_packet`` makes;
- coverage: the arrival shapes and bursts the kernel claims do not enter
  the Python ``on_packet``, ``try_send`` or ``_transmit``.

The switch kernel's open-coded drop is compared with ``Switch._drop`` at
the end.
"""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import TltConfig
from repro.core.window import TltWindowReceiver, TltWindowSender, attach_window_tlt
from repro.net import packet as packet_module
from repro.net.packet import Color, Packet, PacketKind, TltMark
from repro.sim import backend
from repro.switchsim.switch import Switch
from repro.transport import base as transport_base
from repro.transport.base import (
    ByteStreamReceiver,
    ByteStreamSender,
    FlowSpec,
    TransportConfig,
)
from repro.transport.dctcp import DctcpReceiver, DctcpSender
from repro.transport.registry import resolve_config
from repro.transport.reliable import Entry, ReliableSender
from repro.transport.recovery import RtoEstimator
from tests.test_policy import _parity_net, _switch_counters
from tests.util import DropFilter, small_star

pytestmark = pytest.mark.skipif(
    not backend.compiled_available(), reason="compiled backend not built")

MSS = 1460
PACKET_FIELDS = ("kind", "seq", "payload", "size", "ack", "sack", "mark", "color", "is_retx",
                 "ts_sent", "ts_echo", "ecn_echo", "ecn_capable", "tclass")


def fields(packet):
    return tuple(getattr(packet, name) for name in PACKET_FIELDS)


class World:
    """One flow 0 -> 1 on a 2-host star of the given backend."""

    def __init__(self, backend_name, tlt, size=40 * MSS + 7, sender_cls=DctcpSender,
                 with_sender=True, config=None, before_start=None):
        self.name = backend_name
        backend.set_backend(backend_name)
        try:
            self.net = small_star(2)
        finally:
            backend.set_backend(None)
        self.wire = DropFilter(self.net.switches[0])  # keeps what it drops
        self.wire.add(lambda packet: True)
        self.engine = self.net.engine
        self.stats = self.net.stats
        self.spec = FlowSpec(1, 0, 1, size, group="fg")
        config = resolve_config("dctcp" if issubclass(sender_cls, DctcpSender) else "tcp", config)
        self.sender = None
        if with_sender:
            self.sender = sender_cls(self.net.host(0), self.spec, config, self.stats)
        self.receiver = DctcpReceiver(self.net.host(1), self.spec, config, self.stats)
        if tlt and with_sender:
            attach_window_tlt(self.sender, self.receiver, TltConfig(), self.stats)
        elif tlt:
            TltWindowReceiver(self.receiver, self.stats)
        self.prepared = before_start(self) if before_start else None
        self.engine.run(until=1_000)  # the sender starts and fills its window

    def advance(self, dt):
        self.engine.run(until=self.engine.now + dt)

    def ack(self, ack, sack=(), mark=TltMark.CONTROL, ts_echo=0, ecn_echo=False):
        packet = Packet(1, 1, 0, PacketKind.ACK, 0, 0, ack)
        packet.sack = sack
        packet.mark = mark
        packet.color = Color.GREEN
        packet.ts_echo = ts_echo
        packet.ecn_echo = ecn_echo
        host = self.net.host(0)
        host.receive(packet, host.port)

    def data(self, seq, payload, mark=TltMark.NONE, ce=False):
        packet = Packet(1, 0, 1, PacketKind.DATA, seq, payload)
        packet.mark = mark
        packet.ce = ce
        packet.ts_sent = self.engine.now
        host = self.net.host(1)
        host.receive(packet, host.port)

    def sender_state(self):
        s = self.sender
        rto = s.rto
        event = s._rto_event
        state = {name: getattr(s, name) for name in (
            "pipe", "_head", "_scan_hint", "_highest_sacked", "snd_una", "snd_nxt", "dupacks",
            "cwnd", "ssthresh", "in_recovery", "recover_point", "_ca_acc", "alpha",
            "_acked_total", "_acked_marked", "_obs_window_end", "_cwr_window_end",
            "_probe_outstanding", "_rto_deadline", "completed")}
        state.update(
            entries=[tuple(getattr(e, name) for name in Entry.__slots__) for e in s.entries],
            lost_queue=[e.start for e in s.lost_queue],
            retx_inflight=[e.start for e in s._retx_inflight],
            rto=(rto.srtt, rto.rttvar, rto.base_rto, rto.current, rto.backoff_count),
            rto_event=None if event is None else (event.time, event.seq),
            tlt=None if s.tlt is None else s.tlt.state,
            rtt_samples=(self.stats.rtt_samples("fg").seen, list(self.stats.rtt_samples("fg"))),
            delivery=(self.stats.delivery_samples.seen, list(self.stats.delivery_samples)),
            counters=(self.stats.fast_retransmits, self.stats.timeouts,
                      self.stats.green_data_packets, self.stats.red_data_packets,
                      self.stats.green_data_bytes, self.stats.red_data_bytes,
                      self.stats.clocking_packets, s.record.retx_bytes, s.record.tx_bytes,
                      s.record.end_ack_ns),
            started=(s.started, s.established),
            now=self.engine.now,
            events=self.engine.events_processed,
            nic=[fields(p) for p in self.net.host(0).nic.queue],
            wire=[fields(p) for p in self.wire.dropped],
        )
        return state

    def receiver_state(self):
        buffer = self.receiver.buffer
        return {
            "rcv_nxt": buffer.rcv_nxt, "intervals": list(buffer.intervals),
            "last_seq": buffer.last_seq, "done": self.receiver.done,
            "tlt_rx": None if self.receiver.tlt_rx is None else self.receiver.tlt_rx.state,
            "nic": [fields(p) for p in self.net.host(1).nic.queue],
            "wire": [fields(p) for p in self.wire.dropped],
        }


def python_calls(code, fn):
    """How often ``fn()`` enters the Python function with this code
    object; for a tuple of code objects, a tuple of counts."""
    calls = dict.fromkeys(code if isinstance(code, tuple) else (code,), 0)

    def count(frame, event, arg):
        if event == "call" and frame.f_code in calls:
            calls[frame.f_code] += 1

    sys.setprofile(count)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return tuple(calls.values()) if isinstance(code, tuple) else calls[code]


SENDER_ON_PACKET = ByteStreamSender.on_packet.__code__
RECEIVER_ON_PACKET = ByteStreamReceiver.on_packet.__code__
START = ByteStreamSender.start.__code__
TRY_SEND = ByteStreamSender.try_send.__code__
TRANSMIT = ByteStreamSender._transmit.__code__
WINDOW = 10 * MSS  # the initial window: what start() may send


# ------------------------------------------------------ sender: differential

ECHO_MARKS = (TltMark.CONTROL, TltMark.CONTROL, TltMark.IMPORTANT_ECHO,
              TltMark.IMPORTANT_CLOCK_ECHO)

ack_step = st.tuples(
    st.integers(0, 120_000),                                     # time to advance, ns
    st.sampled_from(("advance", "advance", "dup", "stale")),     # cumulative ACK shape
    st.integers(1, 4 * MSS),                                     # ... and its distance
    st.lists(st.tuples(st.integers(-MSS, 14 * MSS),              # SACK blocks, relative to
                       st.integers(1, 4 * MSS)), max_size=3),    # snd_una: offset, length
    st.sampled_from(ECHO_MARKS),
    st.one_of(st.none(), st.integers(0, 400_000)),               # age of ts_echo (None: no echo)
    st.booleans(),                                               # ECN echo
)


def play_acks(backend_name, tlt, recovery, steps, size=40 * MSS + 7, plain_color=None):
    world = World(backend_name, tlt, size=size,
                  config=TransportConfig(recovery=recovery, plain_color=plain_color))
    sender = world.sender
    states = [world.sender_state()]
    for dt, shape, distance, blocks, mark, age, ecn in steps:
        world.advance(dt)
        una = sender.snd_una
        if shape == "advance":
            ack = min(una + distance, sender.snd_nxt)
        elif shape == "dup":
            ack = una
        else:
            ack = max(0, una - distance)
        # Unaligned, overlapping, below snd_una and beyond snd_nxt all occur.
        sack = tuple((max(0, una + off), max(0, una + off) + length) for off, length in blocks)
        ts_echo = 0 if age is None else max(1, world.engine.now - age)
        world.ack(ack, sack, mark, ts_echo, ecn)
        states.append(world.sender_state())
    world.advance(50_000)  # whatever is still being serialized reaches the wire
    states.append(world.sender_state())
    return states


#: Flow sizes around what the start burst may send: one byte, exactly the
#: initial window, one byte more, and a flow the ACKs have to clock out.
SIZES = (1, WINDOW, WINDOW + 1, 40 * MSS + 7, 40 * MSS + 7)


#: Every recovery spec the registry has (repro.transport.recovery).
RECOVERY_SPECS = {"default": None, "tlp": "tlp", "rto200us": {"name": "rto", "min_ns": 200_000},
                  "fixed160us": {"name": "fixed-rto", "rto_ns": 160_000}}


@pytest.mark.parametrize("tlt", [False, True])
@pytest.mark.parametrize("recovery", list(RECOVERY_SPECS.values()), ids=list(RECOVERY_SPECS))
@settings(max_examples=150, deadline=None)
@given(st.lists(ack_step, min_size=1, max_size=40), st.sampled_from(SIZES), st.booleans())
def test_ack_stream_leaves_the_same_sender_on_both_backends(tlt, recovery, steps, size, red):
    """State after the start burst (the first entry) and after every ACK,
    under each recovery spec. ``red``: a non-TLT flow stamped
    ``plain_color`` RED (§5.3 legacy traffic)."""
    plain_color = Color.RED if red and not tlt else None
    expected = play_acks("pure", tlt, recovery, steps, size, plain_color)
    got = play_acks("compiled", tlt, recovery, steps, size, plain_color)
    for step, (want, have) in enumerate(zip(expected, got)):
        for key in want:
            assert have[key] == want[key], f"after step {step}: {key}"


def lossy_exchange(world):
    """A fixed exchange that reaches every transcribed branch. Segment 3
    is marked lost three times: as a hole below the SACKed range, as a
    retransmission aged a full SRTT (RACK, on an advancing ACK with new
    SACK), and as the aged head on a duplicate ACK. Then recovery ends,
    the window grows in congestion avoidance, and an ECN echo cuts it."""
    sender = world.sender
    world.ack(MSS, ts_echo=world.engine.now - 500)
    world.ack(MSS, sack=((2 * MSS, 3 * MSS), (4 * MSS, 9 * MSS)), ts_echo=world.engine.now - 400)
    world.advance(300_000)
    world.ack(3 * MSS, sack=((4 * MSS, 10 * MSS),), mark=TltMark.IMPORTANT_ECHO,
              ts_echo=world.engine.now - 300_000)  # echoes what was sent before the pause
    world.ack(3 * MSS, ts_echo=world.engine.now - 200)
    world.advance(300_000)
    world.ack(3 * MSS, mark=TltMark.IMPORTANT_CLOCK_ECHO, ts_echo=world.engine.now - 100)
    world.ack(sender.recover_point, ts_echo=world.engine.now - 50)
    world.ack(sender.snd_una + MSS + 3, ecn_echo=True, ts_echo=world.engine.now - 40)


#: ACKs of ``lossy_exchange``, and how many of them get past a TLT
#: controller (it suppresses the clock echo that repeats ``snd_una``).
ACKS, ACKS_PAST_TLT = 7, 6


@pytest.mark.parametrize("tlt", [False, True])
def test_stock_sender_acks_stay_out_of_python_on_packet(tlt):
    world = World("compiled", tlt)
    assert python_calls(SENDER_ON_PACKET, lambda: lossy_exchange(world)) == 0
    reference = World("pure", tlt)
    assert python_calls(SENDER_ON_PACKET, lambda: lossy_exchange(reference)) == ACKS
    assert world.sender_state() == reference.sender_state()
    sender = world.sender
    assert max(entry.retx_count for entry in sender.entries) == 3
    assert world.stats.fast_retransmits == 1 and not sender.in_recovery
    assert sender._ca_acc > 0 and sender.cwnd < 5 * MSS and sender.alpha < 0.9


# ------------------------------------------------- sender: eligibility rules


def run_both(prepare, sender_cls=DctcpSender):
    """Play ``lossy_exchange`` on both backends, TLT attached, after
    ``prepare(world)``; returns the two worlds, the compiled one first."""
    worlds = []
    for name in ("compiled", "pure"):
        world = World(name, True, sender_cls=sender_cls)
        world.prepared = prepare(world)
        world.python_on_packet = python_calls(SENDER_ON_PACKET, lambda: lossy_exchange(world))
        worlds.append(world)
    assert worlds[0].sender_state() == worlds[1].sender_state()
    return worlds


def test_instance_on_packet_override_gets_python():
    def prepare(world):
        seen = []
        original = world.sender.on_packet
        world.sender.on_packet = lambda packet: (seen.append(packet.ack), original(packet))
        return seen

    compiled, pure = run_both(prepare)
    assert compiled.prepared == pure.prepared and len(compiled.prepared) == ACKS


def test_instance_spy_on_an_inlined_method_gets_python():
    def prepare(world):
        seen = []
        original = world.sender._detect_losses
        world.sender._detect_losses = lambda: seen.append(world.engine.now) or original()
        return seen

    compiled, pure = run_both(prepare)
    assert compiled.prepared == pure.prepared and compiled.prepared
    assert compiled.python_on_packet == ACKS


class CountingMarks(DctcpSender):
    """A subclass overriding one of the inlined methods (as
    ``tests/test_reliable_core.py``'s ``Core`` does)."""

    def _mark_lost(self, entry):
        self.marked_starts = getattr(self, "marked_starts", []) + [entry.start]
        super()._mark_lost(entry)


def test_subclass_overriding_an_inlined_method_gets_python():
    compiled, pure = run_both(lambda world: None, sender_cls=CountingMarks)
    assert compiled.sender.marked_starts == pure.sender.marked_starts
    assert compiled.sender.marked_starts and compiled.python_on_packet == ACKS


def test_class_patched_mid_run_gets_python(monkeypatch):
    world = World("compiled", True)
    assert python_calls(SENDER_ON_PACKET, lambda: world.ack(MSS)) == 0
    seen = []
    original = ByteStreamSender._restart_rto
    monkeypatch.setattr(ByteStreamSender, "_restart_rto",
                        lambda self: seen.append(self.snd_una) or original(self))
    assert python_calls(SENDER_ON_PACKET, lambda: world.ack(2 * MSS)) == 1
    assert seen == [2 * MSS]
    monkeypatch.undo()
    assert python_calls(SENDER_ON_PACKET, lambda: world.ack(3 * MSS)) == 0


def test_base_class_patched_mid_run_gets_python(monkeypatch):
    """The kernel keeps its verdict on a sender class while the class's
    version tag holds. Patching ReliableSender, two classes above the
    sender's, clears the tag of every class below it: the next ACK is
    Python's, and the one after the undo is C's again."""
    world = World("compiled", True)
    assert python_calls(SENDER_ON_PACKET, lambda: (world.ack(MSS), world.ack(MSS))) == 0
    original = ReliableSender._detect_losses
    monkeypatch.setattr(ReliableSender, "_detect_losses", lambda self: original(self))
    assert python_calls(SENDER_ON_PACKET, lambda: world.ack(2 * MSS)) == 1
    monkeypatch.undo()
    assert python_calls(SENDER_ON_PACKET, lambda: world.ack(3 * MSS)) == 0


class LoggingRto(RtoEstimator):
    __slots__ = ("log",)

    def on_rtt_sample(self, rtt_ns):
        self.log.append(rtt_ns)
        super().on_rtt_sample(rtt_ns)


def test_non_stock_rto_gets_its_on_rtt_sample_called():
    def prepare(world):
        rto = LoggingRto(world.sender.rto.rto_min, world.sender.rto.rto_max)
        rto.log = []
        world.sender.rto = rto
        return rto.log

    compiled, pure = run_both(prepare)
    assert compiled.prepared == pure.prepared and len(compiled.prepared) == ACKS_PAST_TLT
    assert compiled.python_on_packet == 0  # the call is made from C


def test_reservoir_at_capacity_gets_the_call():
    def prepare(world):
        world.stats.rtt_samples("fg").capacity = 2
        world.stats.delivery_samples.capacity = 3

    compiled, pure = run_both(prepare)
    for world in (compiled, pure):
        assert len(world.stats.rtt_samples("fg")) == 2
        assert world.stats.rtt_samples("fg").seen == ACKS_PAST_TLT
        assert len(world.stats.delivery_samples) == 3 and world.stats.delivery_samples.seen > 3
    assert (compiled.stats.rtt_samples("fg")._rng.getstate()
            == pure.stats.rtt_samples("fg")._rng.getstate())
    assert compiled.python_on_packet == 0


def test_rebound_sample_adder_gets_the_call():
    def prepare(world):
        seen = []
        world.sender._add_rtt_sample = seen.append
        return seen

    compiled, pure = run_both(prepare)
    assert compiled.prepared == pure.prepared and len(compiled.prepared) == ACKS_PAST_TLT
    assert compiled.python_on_packet == 0


def test_python_callbacks_see_the_calls_on_packet_makes():
    def prepare(world):
        calls = []
        sender, tlt = world.sender, world.sender.tlt
        for owner, name in ((sender, "cc_on_ack"), (sender, "_on_loss_detected"),
                            (sender, "try_send"), (sender, "_complete"), (tlt, "after_ack")):
            def spy(*args, _name=name, _original=getattr(owner, name)):
                calls.append((_name, world.engine.now, tuple(
                    [e.start for e in a] if isinstance(a, list) else a for a in args)))
                return _original(*args)
            setattr(owner, name, spy)
        return calls

    compiled, pure = run_both(prepare)
    assert compiled.prepared == pure.prepared
    assert compiled.python_on_packet == 0  # spies on what stays Python keep the C path
    by_name = {}
    for name, _, args in compiled.prepared:
        by_name.setdefault(name, []).append(args)
    assert len(by_name["cc_on_ack"]) == ACKS_PAST_TLT  # exactly one per ACK
    assert (MSS, False) in by_name["cc_on_ack"] and (MSS + 3, True) in by_name["cc_on_ack"]
    # ... and the controller's own call for the ACK it suppressed.
    assert len(by_name["after_ack"]) == ACKS and by_name["_on_loss_detected"]


def test_ecn_echo_reaches_cc_only_when_the_flow_negotiated_ect():
    seen = {}
    for name in ("compiled", "pure"):
        world = World(name, False, sender_cls=ByteStreamSender)  # plain TCP: ECT off
        assert not world.sender.config.ecn
        seen[name] = calls = []
        world.sender.cc_on_ack = lambda newly, echo, calls=calls: calls.append((newly, echo))
        assert python_calls(SENDER_ON_PACKET, lambda: world.ack(MSS, ecn_echo=True)) == (
            0 if name == "compiled" else 1)
    assert seen["compiled"] == seen["pure"] == [(MSS, False)]


def test_completion_and_acks_after_it():
    for name in ("compiled", "pure"):
        world = World(name, True, size=3 * MSS)
        done = []
        world.spec.on_complete_ack = done.append
        calls = python_calls(SENDER_ON_PACKET, lambda: (
            world.ack(3 * MSS, ts_echo=world.engine.now - 10), world.ack(3 * MSS)))
        # The completed sender has left the demux table: the second ACK
        # reaches nobody on either backend and is recycled by the sink.
        assert calls == (0 if name == "compiled" else 1)
        assert list(world.net.host(0).endpoints) == []
        assert done == [world.sender.record] and world.sender.completed
        assert world.sender._rto_deadline is None and world.sender.dupacks == 0
        # Only the host's reference and the cycles went; the fields stay.
        assert world.sender._start_event is None and world.sender.tlt.sender is None
        assert world.sender.snd_una == 3 * MSS and world.sender.tlt.state is not None


# -------------------------------------------------------- sender: send path


def send_path_exchange(world):
    """After the start burst, the other shapes of a burst. (1) SACK holes:
    segments 1 and 2 are retransmitted from the lost queue, then new data
    until the halved window cuts the burst. (2) The RTO fires (Python,
    ``_on_timeout``): everything outstanding is queued lost, ``cwnd`` is
    one segment. (3) A cumulative ACK over the first queued segments:
    they are stale heads now, the burst drops them, retransmits what the
    grown window admits and is cut with the queue still loaded; under TLT
    it echoes the important packet, so the tail of the burst is marked.
    (4) The echo of that: the window is shut, the controller clocks."""
    sender = world.sender
    world.ack(MSS, sack=((3 * MSS, 8 * MSS),), ts_echo=world.engine.now - 500)
    assert [e.retx_count for e in sender.entries[1:3]] == [1, 1] and not sender.lost_queue
    assert len(sender.entries) > 10 and sender.pipe + MSS > sender.cwnd
    world.advance(6_000_000)
    assert world.stats.timeouts == 1 and sender.cwnd == MSS
    queued = len(sender.lost_queue)
    world.ack(5 * MSS, mark=TltMark.IMPORTANT_ECHO, ts_echo=world.engine.now - 100)
    retransmitted = sum(e.retx_count for e in sender.entries[5:])
    assert retransmitted and sender.lost_queue[0].lost  # cut mid-queue
    assert queued - len(sender.lost_queue) > retransmitted  # stale heads went too
    world.ack(5 * MSS, mark=TltMark.IMPORTANT_ECHO, ts_echo=world.engine.now - 50)
    world.advance(50_000)  # whatever is still being serialized reaches the wire


def send_path(name, **kwargs):
    """A world, its start burst and ``send_path_exchange``; ``world.python``
    counts the Python frames of ``start``, ``try_send`` and ``_transmit``."""
    made = []

    def play():
        made.append(World(name, **kwargs))
        send_path_exchange(made[0])

    counts = python_calls((START, TRY_SEND, TRANSMIT), play)
    made[0].python = dict(zip(("start", "try_send", "transmit"), counts))
    return made[0]


def send_path_both(**kwargs):
    """``send_path`` on both backends, the compiled world first; they must
    end in the same state, wire included."""
    compiled, pure = send_path("compiled", **kwargs), send_path("pure", **kwargs)
    assert compiled.sender_state() == pure.sender_state()
    return compiled, pure


@pytest.mark.parametrize("tlt", [False, True])
def test_stock_send_path_stays_out_of_python(tlt):
    compiled, pure = send_path_both(tlt=tlt)
    # Python sends only where Python decides to: _on_timeout's try_send
    # and, under TLT, the controller's clocking.
    assert compiled.python["start"] == 0 and pure.python["start"] == 1
    assert compiled.python["try_send"] == 1 and pure.python["try_send"] == 5
    clocked = compiled.stats.clocking_packets
    assert compiled.python["transmit"] == 1 + clocked < pure.python["transmit"]
    assert clocked == (1 if tlt else 0)
    sent = compiled.wire.dropped
    assert len(sent) == pure.python["transmit"] and sum(p.is_retx for p in sent) >= 4
    if tlt:  # Algorithm 1: the tail of the initial window, and only it
        assert [p.mark for p in sent[:10]] == [TltMark.NONE] * 9 + [TltMark.IMPORTANT_DATA]
        assert [p.color for p in sent[:10]] == [Color.RED] * 9 + [Color.GREEN]


def spy_on(name):
    """``before_start`` hook: an instance spy on a sender method."""
    def install(world):
        seen = []
        original = getattr(world.sender, name)

        def spy(*args, **kwargs):
            seen.append((world.engine.now, [getattr(a, "start", a) for a in args], kwargs))
            return original(*args, **kwargs)

        setattr(world.sender, name, spy)
        return seen
    return install


@pytest.mark.parametrize("name", ["try_send", "_transmit"])
def test_instance_spy_on_the_send_path_sees_every_call(name):
    compiled, pure = send_path_both(tlt=True, before_start=spy_on(name))
    assert compiled.prepared == pure.prepared and len(compiled.prepared) >= 4
    assert compiled.python == pure.python  # start() included: the burst is Python's


def logging_subclass(name):
    def method(self, *args):
        self.log = getattr(self, "log", []) + [(self.engine.now, self.pipe, len(self.lost_queue))]
        return getattr(DctcpSender, name)(self, *args)

    return type("Logging" + name, (DctcpSender,), {name: method})


@pytest.mark.parametrize("name", ["_is_last_allowed", "_record_tx", "_next_lost"])
def test_subclass_overriding_a_send_path_method_gets_python(name):
    compiled, pure = send_path_both(tlt=True, sender_cls=logging_subclass(name))
    assert compiled.sender.log == pure.sender.log and len(compiled.sender.log) >= 5
    assert compiled.python["transmit"] == pure.python["transmit"]


def test_send_path_patched_mid_run_gets_python(monkeypatch):
    world = World("compiled", False)
    assert python_calls(TRANSMIT, lambda: world.ack(2 * MSS)) == 0
    sent = len(world.wire.dropped) + len(world.net.host(0).nic.queue)
    seen = []
    original = ByteStreamSender._transmit
    monkeypatch.setattr(ByteStreamSender, "_transmit",
                        lambda self, seg, clock_mark=False: (
                            seen.append(seg.start), original(self, seg, clock_mark)))
    assert python_calls(TRANSMIT, lambda: world.ack(4 * MSS)) == len(seen) > 0
    monkeypatch.undo()
    assert python_calls(TRANSMIT, lambda: world.ack(6 * MSS)) == 0
    assert len(world.wire.dropped) + len(world.net.host(0).nic.queue) > sent + len(seen)


class LoggingController(TltWindowSender):
    def mark_data(self, packet):
        self.log = getattr(self, "log", []) + [(packet.seq, self.state)]
        super().mark_data(packet)


@pytest.mark.parametrize("how", ["subclass", "instance"])
def test_non_stock_mark_data_is_called(how):
    def install(world):
        if how == "subclass":
            return LoggingController(world.sender, TltConfig(), world.stats)
        tlt, seen = world.sender.tlt, []
        original = tlt.mark_data
        tlt.mark_data = lambda packet: (seen.append(packet.seq), original(packet))
        return seen

    compiled, pure = send_path_both(tlt=True, before_start=install)
    logs = [w.prepared.log if how == "subclass" else w.prepared for w in (compiled, pure)]
    assert logs[0] == logs[1] and len(logs[0]) > 10
    assert compiled.python["transmit"] == pure.python["transmit"]


def test_wrapped_host_send_gets_the_python_send_path():
    def install(world):
        host, sent = world.net.host(0), []
        original = host.send
        host.send = lambda packet: (sent.append((packet.seq, packet.mark)), original(packet))
        return sent

    compiled, pure = send_path_both(tlt=True, before_start=install)
    assert compiled.prepared == pure.prepared and len(compiled.prepared) > 10
    assert compiled.python == pure.python


def test_rebound_alloc_packet_gets_the_python_send_path(monkeypatch):
    def install(world):
        # after the network is built: building one binds the allocator
        made, original = [], transport_base.alloc_packet
        monkeypatch.setattr(transport_base, "alloc_packet",
                            lambda *args: (made.append(args[4:]), original(*args))[1])
        return made

    worlds = []
    for name in ("compiled", "pure"):
        worlds.append(send_path(name, tlt=False, before_start=install))
        monkeypatch.undo()
    compiled, pure = worlds
    assert compiled.sender_state() == pure.sender_state()
    assert compiled.prepared == pure.prepared and len(compiled.prepared) > 10
    assert compiled.python == pure.python


def test_handshake_start_sends_the_syn_from_python():
    states = {}
    for name in ("compiled", "pure"):
        frames = python_calls(START, lambda: states.update(
            {name: World(name, True, config=TransportConfig(handshake=True))}))
        assert frames == 1
        world = states[name]
        world.advance(10_000)
        assert [p.kind for p in world.wire.dropped] == [PacketKind.SYN]
        assert world.sender.started and not world.sender.established
    assert states["compiled"].sender_state() == states["pure"].sender_state()


def test_wrapped_or_repeated_start_gets_python():
    def wrap(world):
        original = world.sender.start
        world.sender.start = lambda: original()

    def again(world):  # a second start event, after the flow's own
        world.engine.schedule_at(0, world.sender.start)

    for hook, frames in ((wrap, 1), (again, 1), (None, 0)):
        made = []
        assert python_calls(START, lambda: made.append(
            World("compiled", True, before_start=hook))) == frames
        assert made[0].sender_state() == World("pure", True, before_start=hook).sender_state()


def test_start_under_attribution_is_a_python_call():
    from repro.sim import _ckernel

    table, made = {}, []
    _ckernel.set_attribution(table)
    try:
        frames = python_calls(START, lambda: made.append(World("compiled", True)))
    finally:
        _ckernel.set_attribution(None)
    assert frames == 1 and table["ByteStreamSender.start"][0] == 1
    assert made[0].sender_state() == World("pure", True).sender_state()


# ---------------------------------------------------------------- receiver


arrival = st.tuples(st.integers(0, 60), st.integers(0, 12),
                    st.sampled_from((TltMark.NONE, TltMark.NONE, TltMark.IMPORTANT_DATA,
                                     TltMark.IMPORTANT_CLOCK_DATA)),
                    st.booleans())


def play_data(backend_name, tlt, arrivals, size):
    world = World(backend_name, tlt, size=size, with_sender=False)
    states = []
    for seq, length, mark, ce in arrivals:
        world.data(seq * 10, length * 10, mark if tlt else TltMark.NONE, ce)
        world.advance(10_000)  # the ACK reaches the switch
        states.append(world.receiver_state())
    return states


@pytest.mark.parametrize("tlt", [False, True])
@settings(max_examples=100, deadline=None)
@given(st.lists(arrival, max_size=80), st.sampled_from((400, 10_000)))
def test_data_stream_leaves_the_same_receiver_on_both_backends(tlt, arrivals, size):
    """``test_sack.py``'s arrival strategy (any order, duplicates,
    overlaps, adjacent pieces, empty payloads) through the host sink:
    scoreboard and every ACK's ``ack``/``sack``/``mark``/echoes."""
    expected = play_data("pure", tlt, arrivals, size)
    got = play_data("compiled", tlt, arrivals, size)
    for step, (want, have) in enumerate(zip(expected, got)):
        assert have == want, f"after arrival {step}"


def test_lossy_arrival_shapes_stay_out_of_python_on_packet():
    world = World("compiled", True, with_sender=False)

    def arrivals():
        world.data(0, 100)                                  # in order
        world.data(300, 100)                                # new island
        world.data(600, 100, TltMark.IMPORTANT_DATA)        # second island
        world.data(450, 50)                                 # between islands
        world.data(400, 50)                                 # joins two pieces
        world.data(320, 30)                                 # inside an island
        world.data(0, 100)                                  # stale duplicate
        world.data(100, 250)                                # fills the head hole, swallows
        world.data(250, 500)                                # swallows the rest

    assert python_calls(RECEIVER_ON_PACKET, arrivals) == 0
    assert world.receiver.buffer.rcv_nxt == 750 and world.receiver.buffer.intervals == []


def test_wrapped_host_send_gets_the_python_receiver():
    world = World("compiled", False, with_sender=False)
    host = world.net.host(1)
    sent = []
    original = host.send
    host.send = lambda packet: (sent.append(packet.ack), original(packet))
    assert python_calls(RECEIVER_ON_PACKET, lambda: (world.data(0, 100), world.data(300, 100))) == 2
    assert sent == [100, 100]
    host.send = original
    assert python_calls(RECEIVER_ON_PACKET, lambda: world.data(100, 100)) == 0


def complete(name, callback=None, **kwargs):
    """A 200-byte flow delivered in two halves and a duplicate of the
    second; ``callback(world, record)`` is the flow's ``on_complete_rx``."""
    world = World(name, size=200, **kwargs)
    world.calls = []
    world.spec.on_complete_rx = lambda record: world.calls.append((
        record and (record.flow_id, record.end_rx_ns), world.engine.now,
        world.stats.incomplete_flows(), callback and callback(world, record)))
    world.frames = python_calls(RECEIVER_ON_PACKET, lambda: (
        world.data(0, 100), world.advance(300), world.data(100, 100), world.data(100, 100)))
    assert world.receiver.done and len(world.calls) == 1
    world.advance(50_000)
    return world


@pytest.mark.parametrize("tlt", [False, True])
def test_completion_edge_stays_out_of_python_on_packet(tlt):
    compiled, pure = complete("compiled", tlt=tlt), complete("pure", tlt=tlt)
    assert compiled.frames == 0 and pure.frames == 3
    assert compiled.calls == pure.calls == [((1, 1_300), 1_300, 0, None)]
    assert compiled.sender.record.end_rx_ns == 1_300 and compiled.stats.incomplete_flows() == 0
    assert compiled.receiver_state() == pure.receiver_state()
    assert [p.ack for p in compiled.wire.dropped if p.kind == PacketKind.ACK] == [100, 200, 200]


def test_completion_without_a_record_calls_back_with_none():
    worlds = [complete(name, tlt=False, with_sender=False) for name in ("compiled", "pure")]
    assert worlds[0].frames == 0 and worlds[0].calls == worlds[1].calls == [(None, 1_300, 0, None)]
    assert worlds[0].receiver_state() == worlds[1].receiver_state()


def reply_flow(world, record):
    """What ``apps/rpc.py`` does inside the callback: a reply flow back to
    the sender, whose endpoints register on the host being delivered to."""
    spec = FlowSpec(2, 1, 0, 3_000, start_ns=world.engine.now, group="fg")
    config = world.receiver.config
    DctcpSender(world.net.host(1), spec, config, world.stats)
    DctcpReceiver(world.net.host(0), spec, config, world.stats)
    return sorted(world.net.host(1).endpoints)


def unregister(world, record):
    world.net.host(1).unregister_endpoint(1)
    return sorted(world.net.host(1).endpoints)


@pytest.mark.parametrize("callback", [reply_flow, unregister])
def test_completion_callback_may_change_the_hosts_endpoints(callback):
    compiled, pure = complete("compiled", callback, tlt=True), complete("pure", callback, tlt=True)
    assert compiled.frames == 0 and compiled.calls == pure.calls
    assert compiled.receiver_state() == pure.receiver_state()
    acks = [p.ack for p in compiled.wire.dropped if p.kind == PacketKind.ACK]
    if callback is reply_flow:  # ... and its initial window left from C, after the ACK
        assert compiled.calls[0][3] == [1, 2] and acks == [100, 200, 200]
        assert [p.seq for p in compiled.wire.dropped if p.flow_id == 2] == [0, MSS, 2 * MSS]
    else:  # the duplicate found no endpoint
        assert compiled.calls[0][3] == [] and acks == [100, 200]


# ------------------------------------------------------------ switch: drops

DROP_COUNTERS = ("drops_red", "drops_red_data", "drops_red_ctrl", "drops_green",
                 "drops_green_data", "drops_green_ctrl", "drop_bytes")
SWITCH_DROP = Switch._drop.__code__


def drive_drops(name, mode):
    """``test_policy``'s mixed burst with red control packets through a real
    switch with K and a small buffer, on one backend; every drop counter,
    the switch's own, and what came back to the packet pool."""
    backend.set_backend(name)
    try:
        net = _parity_net(None, audited=mode == "audited")
    finally:
        backend.set_backend(None)
    switch, seen = net.switches[0], []
    if mode == "spied":
        original = switch._drop
        switch._drop = lambda packet, reason, queue, occupancy=None: (
            seen.append((packet.flow_id, packet.seq, reason, occupancy)),
            original(packet, reason, queue, occupancy))
    elif mode == "audit attribute":  # set past set_auditor: the kernel stays bound
        class Audit:
            on_enqueue = on_dequeue = staticmethod(lambda *args: None)

            @staticmethod
            def on_drop(switch, packet, queue, reason, occupancy):
                seen.append((packet.flow_id, packet.seq, reason, occupancy))

        switch.audit = Audit
    def burst():
        for i in range(30):
            for src, color in ((0, Color.RED), (1, Color.GREEN)):
                data = Packet(70 + src, src, 2, PacketKind.DATA, seq=i, payload=1452)
                data.color, data.ecn_capable = color, True
                net.host(src).send(data)
            cnp = Packet(70, 0, 2, PacketKind.CNP, seq=i)
            cnp.color = Color.RED  # a control packet a misconfigured ACL left red
            net.host(0).send(cnp)
        net.engine.run()

    packet_module._POOL.clear()
    frames = python_calls(SWITCH_DROP, burst)
    counters = dict(_switch_counters(net), pool=len(packet_module._POOL),
                    **{key: getattr(net.stats, key) for key in DROP_COUNTERS})
    return counters, frames, seen


@pytest.mark.parametrize("mode", ["plain", "audited", "spied", "audit attribute"])
def test_switch_drops_count_the_same_open_coded(mode):
    compiled, frames, seen = drive_drops("compiled", mode)
    pure, pure_frames, pure_seen = drive_drops("pure", mode)
    assert compiled == pure and seen == pure_seen
    drops = compiled["drops_red"] + compiled["drops_green"]
    assert compiled["drops_red_data"] and compiled["drops_red_ctrl"] and compiled["drops_green"]
    assert compiled["sw_drops_red"] == compiled["drops_red"] and compiled["pool"] > drops
    assert pure_frames == drops and frames == (0 if mode == "plain" else drops)
    assert len(seen) == (drops if mode in ("spied", "audit attribute") else 0)
