"""The reliable-delivery core alone: no network, no packets.

``repro.transport.reliable.ReliableSender`` is driven through a stub
subclass that records what the core hands its family hooks. Every case
runs in byte units (``stride = 1460``, weight = payload) and in PSN
units (``stride = 1``, weight = payload + header) — the two shapes
``ByteStreamSender`` and ``RoceSender`` give it. These tests fail on
behavioural drift of the core itself; the end-to-end fingerprints in
``test_determinism.py`` fail on drift of anything.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Engine
from repro.stats.collector import NetStats
from repro.transport.base import FlowSpec, TransportConfig
from repro.transport.reliable import Entry, ReliableSender
from repro.transport.recovery import resolve_recovery

SRTT = 100  # config.base_rtt_ns: the core's SRTT until an RTT sample arrives
RTO = 1_000
STRIDES = [1460, 1]


class Core(ReliableSender):
    """ReliableSender with recording hooks and no family behaviour."""

    def __init__(self, stride: int):
        self.weight = 1460 if stride > 1 else 1048
        engine = Engine()
        host = SimpleNamespace(engine=engine, register_endpoint=lambda flow_id, ep: None)
        spec = FlowSpec(flow_id=1, src=0, dst=1, size=1 << 40)
        recovery = resolve_recovery({"name": "fixed-rto", "rto_ns": RTO}, "tcp")
        config = TransportConfig(base_rtt_ns=SRTT, recovery=recovery)
        super().__init__(host, spec, config, NetStats(), stride)
        self.loss_rounds = []
        self.timeouts = 0
        self.transmitted = []
        self.marks = 0
        self.mark_order = {}  # entry -> ordinal of its latest marking

    def start(self):
        pass

    def is_all_acked(self):
        return False

    def _transmit(self, entry, clock_mark=False):
        self.transmitted.append((entry, clock_mark))
        self._record_tx(entry, self.engine.now)

    def _on_loss_detected(self, marked):
        self.loss_rounds.append(list(marked))

    def _on_timeout(self):
        self.timeouts += 1
        self.rto_marked = self._mark_all_lost()

    def _mark_lost(self, entry):
        was_lost = entry.lost
        super()._mark_lost(entry)
        if entry.lost and not was_lost:
            self.marks += 1
            self.mark_order[entry] = self.marks

    # -- driving helpers -----------------------------------------------------

    def at(self, time_ns: int) -> None:
        self.engine.run(until=time_ns)

    def send(self, count: int = 1):
        sent = []
        for _ in range(count):
            start = len(self.entries) * self.stride
            entry = Entry(start, start + self.stride, self.weight)
            self.entries.append(entry)
            self._record_tx(entry, self.engine.now)
            sent.append(entry)
        return sent

    def retransmit(self):
        entry = self._pop_lost()
        if entry is not None:
            self._record_tx(entry, self.engine.now)
        return entry

    def delivered(self) -> int:
        return len(list(self.stats.delivery_samples))


def check_invariants(core: Core) -> None:
    in_pipe = [e for e in core.entries if e.in_pipe]
    assert core.pipe == sum(e.weight for e in in_pipe)
    for entry in core.entries:
        assert not (entry.lost and entry.in_pipe)
        if entry.acked or entry.sacked:
            assert not entry.lost and not entry.in_pipe
    for entry in core._retx_inflight:
        assert entry.retx_count > 0 and not (entry.lost or entry.acked or entry.sacked)
    live = [e for e in core.lost_queue if e.lost]
    expected = sorted((e for e in core.entries if e.lost), key=core.mark_order.__getitem__)
    assert live == expected  # each live lost entry once, in marking order


# ------------------------------------------------------------- ACK and SACK


@pytest.mark.parametrize("stride", STRIDES)
def test_cumulative_ack_across_partially_sacked_window(stride):
    core = Core(stride)
    e = core.send(6)
    assert core.pipe == 6 * core.weight
    assert core._apply_sack([(2 * stride, 4 * stride)]) == 2 * stride
    assert [x.sacked for x in e] == [False, False, True, True, False, False]
    assert core.pipe == 4 * core.weight and core.delivered() == 2

    core._ack_to(5 * stride)
    assert core._head == 5
    assert all(x.acked for x in e[:5]) and not e[5].acked
    assert core.pipe == core.weight
    assert core.delivered() == 5  # the SACKed pair is not sampled twice
    assert core._first_unacked() is e[5]
    # A repeated or partial ACK is a no-op.
    core._ack_to(5 * stride)
    core._ack_to(5 * stride + stride - 1 if stride > 1 else 5)
    assert core._head == 5 and core.pipe == core.weight
    check_invariants(core)


@pytest.mark.parametrize("stride", STRIDES)
def test_sack_of_never_sent_range_is_bounded_by_what_was_sent(stride):
    core = Core(stride)
    e = core.send(3)
    assert core._apply_sack([(2 * stride, 10 * stride)]) == stride
    assert e[2].sacked and len(core.entries) == 3
    assert core._highest_sacked == 10 * stride
    assert core.pipe == 2 * core.weight
    # A block wholly beyond the window touches nothing.
    assert core._apply_sack([(20 * stride, 30 * stride)]) == 0
    assert core._apply_sack(()) == 0
    # Both holes are below the highest SACK: rule 1 marks them, once.
    assert core._detect_losses() == e[:2]
    assert core._detect_losses() == []
    assert core.loss_rounds == [e[:2]]
    assert core.pipe == 0
    check_invariants(core)


def test_sack_block_must_cover_the_whole_entry():
    stride = 1460  # a PSN has no interior: byte units only
    core = Core(stride)
    e = core.send(2)
    assert core._apply_sack([(1, stride), (stride, 2 * stride - 1)]) == 0
    assert not e[0].sacked and not e[1].sacked
    assert core._apply_sack([(1, 2 * stride)]) == stride
    assert not e[0].sacked and e[1].sacked


# ---------------------------------------------------------- loss detection


@pytest.mark.parametrize("stride", STRIDES)
def test_dupack_marks_head_once_then_only_after_aging(stride):
    core = Core(stride)
    e = core.send(3)
    assert core._detect_losses() == []  # no evidence, no marks
    core.dupacks = 1
    assert core._detect_losses() == [e[0]]  # early retransmit, threshold 1
    assert core._detect_losses() == []  # already lost
    assert core.pipe == 2 * core.weight

    core.at(10)
    assert core.retransmit() is e[0]
    assert e[0].retx_count == 1 and e[0] in core._retx_inflight
    core.at(10 + SRTT - 1)
    assert core._detect_losses() == []  # retransmission still in flight
    core.at(10 + SRTT)
    assert core._detect_losses() == [e[0]]
    assert e[0] not in core._retx_inflight
    assert core.loss_rounds == [[e[0]], [e[0]]]
    check_invariants(core)


@pytest.mark.parametrize("stride", STRIDES)
def test_rack_aging_fires_exactly_at_last_tx_plus_srtt_in_retx_order(stride):
    core = Core(stride)
    e = core.send(5)
    core._apply_sack([(4 * stride, 5 * stride)])
    assert core._detect_losses() == e[:4]
    core.at(50)
    assert core.retransmit() is e[0]
    core.at(60)
    # Retransmit 2 before 1: re-marking must follow this order, not PSN
    # order and not hash order.
    core.lost_queue.rotate(-1)
    assert core.retransmit() is e[2]
    assert core.retransmit() is e[3]
    assert core.retransmit() is e[1]
    core._ack_to(stride)  # entry 0 repaired
    assert list(core._retx_inflight) == [e[2], e[3], e[1]]

    core.at(60 + SRTT - 1)
    assert core._detect_losses() == []
    core.at(60 + SRTT)
    assert core._detect_losses() == [e[2], e[3], e[1]]
    assert list(core.lost_queue) == [e[2], e[3], e[1]]
    check_invariants(core)


@pytest.mark.parametrize("stride", STRIDES)
def test_rack_does_not_remark_above_highest_sack(stride):
    core = Core(stride)
    e = core.send(3)
    core._apply_sack([(stride, 2 * stride)])
    assert core._detect_losses() == [e[0]]
    core.retransmit()
    core._mark_lost(e[2])
    core.retransmit()  # entry 2 retransmitted, but nothing SACKed above it
    core.at(10 * SRTT)
    assert core._detect_losses() == [e[0]]
    assert e[2] in core._retx_inflight


@pytest.mark.parametrize("stride", STRIDES)
def test_mark_sent_before_boundary_is_inclusive(stride):
    core = Core(stride)
    core.at(10)
    (a,) = core.send()
    core.at(20)
    (b,) = core.send()
    core.at(30)
    (c,) = core.send()
    assert core.mark_lost_sent_before(9) == []
    assert core.loss_rounds == []
    assert core.mark_lost_sent_before(20) == [a, b]
    assert core.loss_rounds == [[a, b]]
    assert c.in_pipe and not c.lost and core.pipe == core.weight
    assert core.mark_lost_sent_before(20) == []  # already marked
    check_invariants(core)


# ---------------------------------------------------------------- RTO timer


@pytest.mark.parametrize("stride", STRIDES)
def test_rto_marks_everything_outstanding_backs_off_and_rearms(stride):
    core = Core(stride)
    e = core.send(3)
    core._apply_sack([(stride, 2 * stride)])
    assert not core.rto_armed
    core._arm_rto()
    assert core.rto_armed and core._rto_deadline == RTO
    core.at(400)
    core._arm_rto()  # arming an armed timer does not move it
    assert core._rto_deadline == RTO
    core._restart_rto()
    assert core._rto_deadline == 400 + RTO

    core.at(RTO)  # the stale event fires, finds the deadline moved, re-sleeps
    assert core.timeouts == 0
    core.at(400 + RTO)
    assert core.timeouts == 1 and core.stats.timeouts == 1 and core.record.timeouts == 1
    assert core.rto_marked == [e[0], e[2]]
    assert core.pipe == 0
    assert core._rto_deadline == 400 + RTO + 2 * RTO  # backed off, re-armed
    assert core.loss_rounds == []  # an RTO is not a fast-loss round

    core._cancel_rto()
    assert not core.rto_armed
    core.at(10 * RTO)
    assert core.timeouts == 1
    check_invariants(core)


# --------------------------------------------------------------- lost queue


@pytest.mark.parametrize("stride", STRIDES)
def test_stale_lost_queue_heads_are_skipped(stride):
    core = Core(stride)
    e = core.send(4)
    for entry in e:
        core._mark_lost(entry)
    assert core.has_unrepaired_loss()
    core._ack_to(stride)
    core._apply_sack([(stride, 2 * stride)])
    assert len(core.lost_queue) == 4
    assert core._next_lost() is e[2]
    assert len(core.lost_queue) == 2  # peeking dropped the two stale heads
    assert core._next_lost() is e[2]  # and is idempotent
    assert core._pop_lost() is e[2]
    assert core.clock_retransmit() == core.weight  # repairs the last lost entry...
    assert core.transmitted == [(e[3], True)]
    assert not core.has_unrepaired_loss() and core._pop_lost() is None
    assert core.clock_retransmit() == core.weight  # ...then the first unacked
    assert core.transmitted[-1] == (e[2], True)
    core._ack_to(4 * stride)
    assert core.clock_retransmit() == 0
    check_invariants(core)


# ------------------------------------------------------------ the property

_OPS = st.one_of(
    st.tuples(st.just("send"), st.integers(1, 4)),
    st.tuples(st.just("ack"), st.integers(0, 12)),
    st.tuples(st.just("sack"), st.integers(0, 12), st.integers(1, 4)),
    st.tuples(st.just("dupack")),
    st.tuples(st.just("detect")),
    st.tuples(st.just("sent_before"), st.integers(0, 3 * SRTT)),
    st.tuples(st.just("mark_all")),
    st.tuples(st.just("retransmit")),
    st.tuples(st.just("clock")),
    st.tuples(st.just("tick"), st.integers(1, 2 * SRTT)),
)


@pytest.mark.parametrize("stride", STRIDES)
@settings(max_examples=150, deadline=None)
@given(ops=st.lists(_OPS, max_size=40))
def test_scoreboard_invariants_hold_under_any_operation_sequence(stride, ops):
    core = Core(stride)
    for op in ops:
        kind = op[0]
        if kind == "send":
            core.send(op[1])
        elif kind == "ack":
            seq = min(op[1], len(core.entries)) * stride
            if seq > core._head * stride:
                core.dupacks = 0
            core._ack_to(seq)
        elif kind == "sack":
            core._apply_sack([(op[1] * stride, (op[1] + op[2]) * stride)])
        elif kind == "dupack":
            core.dupacks += 1
        elif kind == "detect":
            core._detect_losses()
        elif kind == "sent_before":
            core.mark_lost_sent_before(core.engine.now - op[1])
        elif kind == "mark_all":
            core._mark_all_lost()
        elif kind == "retransmit":
            core.retransmit()
        elif kind == "clock":
            core.clock_retransmit()
        else:
            core.at(core.engine.now + op[1])
        check_invariants(core)
    # Draining the queue yields exactly the live lost entries, in order.
    expected = sorted((e for e in core.entries if e.lost), key=core.mark_order.__getitem__)
    drained = []
    while core.has_unrepaired_loss():
        drained.append(core.retransmit())
    assert drained == expected
    assert not core.lost_queue
