"""Behavioral tests for the RoCE family (DCQCN, go-back-N, IRN, HPCC)."""

from repro.net.packet import PacketKind
from repro.sim.units import MILLIS
from repro.switchsim.ecn import RedEcn
from repro.transport.base import FlowSpec, TransportConfig
from repro.transport.dcqcn import (
    DCQCN_FR_STAGES,
    DCQCN_RATE_AI_BPS,
    DCQCN_RATE_HAI_BPS,
    DCQCN_TIMER_NS,
    DcqcnRateControl,
)
from repro.transport.registry import create_flow
from repro.sim.engine import Engine

from tests.util import DropFilter, PacketTap, run_flow, small_star

import pytest
from hypothesis import given, settings, strategies as st

# Taps in this module retain Packet objects across the run.
pytestmark = pytest.mark.usefixtures("no_packet_pool")


import random


def roce_config(**kw):
    kw.setdefault("base_rtt_ns", 4_000)
    return TransportConfig(**kw)


def test_dcqcn_flow_completes():
    net = small_star()
    _, _, record = run_flow(net, "dcqcn", size=100_000, config=roce_config())
    assert record.completed
    assert record.timeouts == 0


def test_all_roce_variants_complete():
    for name in ("dcqcn", "dcqcn-sack", "irn", "hpcc"):
        net = small_star(int_enabled=True)
        _, _, record = run_flow(net, name, size=50_000, config=roce_config())
        assert record.completed, name


def test_gbn_receiver_nacks_out_of_order():
    net = small_star()
    nacks = []
    switch = net.switches[0]
    def tap(packet):
        if packet.kind == PacketKind.NACK:
            nacks.append(packet)

    PacketTap(switch, tap)
    drop = DropFilter(switch)
    drop.drop_seq_once(3)
    _, _, record = run_flow(net, "dcqcn", size=50_000, config=roce_config())
    assert record.completed
    assert nacks
    assert nacks[0].ack == 3  # expected PSN


def test_gbn_retransmits_everything_from_hole():
    """Go-back-N resends the hole and everything after it."""
    net = small_star()
    drop = DropFilter(net.switches[0])
    drop.drop_seq_once(3)
    _, _, record = run_flow(net, "dcqcn", size=50_000, config=roce_config())
    # 50 packets; losing PSN 3 rewinds, so retx covers >1 packet.
    assert record.retx_bytes > 1_000


def test_sack_mode_retransmits_only_hole():
    net = small_star()
    drop = DropFilter(net.switches[0])
    drop.drop_seq_once(3)
    _, _, record = run_flow(net, "dcqcn-sack", size=50_000, config=roce_config())
    assert record.completed
    assert record.timeouts == 0
    assert record.retx_bytes == 1_000  # exactly one packet


def test_tail_loss_needs_timeout_without_tlt():
    net = small_star()
    drop = DropFilter(net.switches[0])
    drop.drop_once(lambda p: p.kind == PacketKind.DATA and p.seq == 49)
    _, _, record = run_flow(net, "dcqcn", size=50_000, config=roce_config())
    assert record.completed
    assert record.timeouts >= 1
    assert record.fct_ns > 4 * MILLIS  # static 4 ms RoCE RTO


def test_irn_window_capped_at_bdp():
    net = small_star()
    config = roce_config()
    spec = FlowSpec(flow_id=net.new_flow_id(), src=0, dst=1, size=500_000)
    sender, _ = create_flow("irn", net, spec, config)
    bdp = config.link_rate_bps * config.base_rtt_ns // 8 // 1_000_000_000
    assert sender.window_cap_bytes == bdp
    max_pipe = [0]
    original = sender._transmit

    def spy(psn, clock_mark=False):
        original(psn, clock_mark)
        max_pipe[0] = max(max_pipe[0], sender.pipe)

    sender._transmit = spy
    net.engine.run()
    assert max_pipe[0] <= bdp + 1_048  # one packet of slack


def test_cnp_reduces_dcqcn_rate():
    net = small_star(ecn=RedEcn(2_000, 10_000, 1.0, random.Random(3)))
    config = roce_config()
    senders = []
    for src in (0, 1):
        spec = FlowSpec(flow_id=net.new_flow_id(), src=src, dst=2, size=400_000)
        senders.append(create_flow("dcqcn", net, spec, config)[0])
    rates = []
    for s in senders:
        original = s.rate_ctrl.on_cnp

        def spy(orig=original, sender=s):
            orig()
            rates.append(sender.rate_ctrl.rc)

        s.rate_ctrl.on_cnp = spy
    net.engine.run()
    assert rates, "expected CNPs under congestion"
    assert min(rates) < config.link_rate_bps


def test_dcqcn_rate_machine_cut_and_recover():
    engine = Engine()
    config = roce_config()
    rc = DcqcnRateControl(engine, config)
    rc.start()
    rc.on_cnp()
    after_cut = rc.rc
    assert after_cut == config.link_rate_bps * 0.5  # alpha=1 -> halved
    assert rc.alpha > 0.99
    # Five timer periods of fast recovery move Rc back toward Rt.
    engine.run(until=6 * DCQCN_TIMER_NS)
    assert rc.rc > after_cut
    rc.stop()


def test_dcqcn_alpha_decays_without_cnp():
    engine = Engine()
    rc = DcqcnRateControl(engine, roce_config())
    rc.start()
    rc.on_cnp()
    alpha0 = rc.alpha
    engine.run(until=1_000_000)  # many alpha periods
    assert rc.alpha < alpha0
    rc.stop()


def test_dcqcn_hyper_increase_reaches_line_rate():
    engine = Engine()
    config = roce_config()
    rc = DcqcnRateControl(engine, config)
    rc.start()
    rc.on_cnp()
    engine.run(until=100 * DCQCN_TIMER_NS)
    assert rc.rc > 0.95 * config.link_rate_bps
    rc.stop()


class TwoTimerDcqcn:
    """Reference: DCQCN with its alpha timer and rate timer apart, as
    Zhu et al. describe it. Same period, both restarted by a CNP."""

    def __init__(self, engine, config):
        self.engine, self.config = engine, config
        self.rc = self.rt = float(config.link_rate_bps)
        self.alpha = 1.0
        self.time_stage = self.byte_stage = self._bytes_since = 0
        self._events = {}

    def _arm(self, name, fire):
        if name in self._events:
            self._events[name].cancel()
        self._events[name] = self.engine.schedule_timer(DCQCN_TIMER_NS, fire)

    def start(self):
        self._arm("alpha", self._alpha_fire)
        self._arm("rate", self._rate_fire)

    def on_cnp(self):
        g = self.config.dcqcn_g
        self.rt = self.rc
        self.rc = max(self.rc * (1 - self.alpha / 2), self.config.min_rate_bps)
        self.alpha = (1 - g) * self.alpha + g
        self.time_stage = self.byte_stage = self._bytes_since = 0
        self.start()

    def on_bytes_sent(self, nbytes):
        self._bytes_since += nbytes
        if self._bytes_since >= self.config.dcqcn_byte_counter:
            self._bytes_since = 0
            self.byte_stage += 1
            self._increase()

    def _alpha_fire(self):
        self.alpha *= 1 - self.config.dcqcn_g
        self._arm("alpha", self._alpha_fire)

    def _rate_fire(self):
        self.time_stage += 1
        self._increase()
        self._arm("rate", self._rate_fire)

    def _increase(self):
        f, link = DCQCN_FR_STAGES, float(self.config.link_rate_bps)
        if self.time_stage >= f and self.byte_stage >= f:
            self.rt += DCQCN_RATE_HAI_BPS
        elif self.time_stage >= f or self.byte_stage >= f:
            self.rt += DCQCN_RATE_AI_BPS
        self.rt = min(self.rt, link)
        self.rc = min((self.rt + self.rc) / 2, link)


@pytest.mark.parametrize("seed", range(5))
def test_one_dcqcn_timer_matches_two_timer_reference(seed):
    """After every step of a random CNP/byte schedule the one-timer rate
    machine holds exactly the reference's state."""
    rng = random.Random(seed)
    config = roce_config(dcqcn_byte_counter=rng.choice([3_000, 50_000, 10_000_000]))
    engines = Engine(), Engine()
    machine, reference = DcqcnRateControl(engines[0], config), TwoTimerDcqcn(engines[1], config)
    machine.start()
    reference.start()
    now = deepest = 0
    for _ in range(400):
        now += rng.choice([0, 1, rng.randrange(3 * DCQCN_TIMER_NS),
                           DCQCN_TIMER_NS])
        for engine in engines:
            engine.run(until=now)
        if rng.random() < 0.3:
            machine.on_cnp()
            reference.on_cnp()
        else:
            nbytes = rng.randrange(1, 4_000)
            machine.on_bytes_sent(nbytes)
            reference.on_bytes_sent(nbytes)
        for name in ("alpha", "rc", "rt", "time_stage", "byte_stage"):
            assert getattr(machine, name) == getattr(reference, name), (name, now)
        assert machine.rate_bps == int(reference.rc)
        deepest = max(deepest, machine.time_stage)
    assert deepest > DCQCN_FR_STAGES  # past fast recovery
    machine.stop()


@given(
    min_rate=st.integers(1_000_000, 40_000_000_000),
    link_extra=st.integers(0, 60_000_000_000),
    byte_counter=st.sampled_from([1_500, 30_000, 10_000_000]),
    g=st.sampled_from([1 / 256, 1 / 16, 0.5, 1.0]),
    steps=st.lists(st.tuples(st.sampled_from(["cnp", "bytes", "time"]),
                             st.integers(0, 200_000)), max_size=300),
)
@settings(max_examples=200, deadline=None)
def test_dcqcn_rate_stays_between_min_and_line_rate(min_rate, link_extra, byte_counter, g,
                                                     steps):
    """The sender paces by ``rate_bps`` unclamped: under any interleaving
    of CNPs, timer fires and sent bytes it stays in
    ``[min_rate_bps, link_rate_bps]``."""
    config = roce_config(min_rate_bps=min_rate, link_rate_bps=min_rate + link_extra,
                         dcqcn_byte_counter=byte_counter, dcqcn_g=g)
    engine = Engine()
    machine = DcqcnRateControl(engine, config)
    machine.start()
    for action, amount in steps:
        if action == "cnp":
            machine.on_cnp()
        elif action == "bytes":
            machine.on_bytes_sent(amount)
        else:
            engine.run(until=engine.now + amount)  # 0-3.6 timer periods
        assert config.min_rate_bps <= machine.rate_bps <= config.link_rate_bps
        assert config.min_rate_bps <= machine.rc <= config.link_rate_bps


def test_hpcc_window_shrinks_under_congestion():
    net = small_star(int_enabled=True)
    config = roce_config()
    senders = []
    for src in (0, 1):
        spec = FlowSpec(flow_id=net.new_flow_id(), src=src, dst=2, size=400_000)
        senders.append(create_flow("hpcc", net, spec, config)[0])
    net.engine.run()
    bdp = config.link_rate_bps * config.base_rtt_ns // 8 // 1_000_000_000
    # Two competing flows: each HPCC window must end below the BDP.
    assert all(s.hpcc.window < bdp for s in senders)


def test_hpcc_single_flow_keeps_high_window():
    net = small_star(int_enabled=True)
    config = roce_config()
    sender, _, record = run_flow(net, "hpcc", size=400_000, config=config)
    assert record.completed
    bdp = config.link_rate_bps * config.base_rtt_ns // 8 // 1_000_000_000
    assert sender.hpcc.window > bdp // 4


def test_roce_receiver_acks_every_packet():
    net = small_star()
    acks = [0]
    switch = net.switches[0]
    def tap(packet):
        if packet.kind == PacketKind.ACK:
            acks[0] += 1

    PacketTap(switch, tap)
    run_flow(net, "dcqcn", size=50_000, config=roce_config())
    assert acks[0] >= 50  # one per data packet


def test_sack_lost_retransmission_recovered_by_reorder_timer():
    """The silence pattern: a retransmission is lost again and no
    further ACKs arrive (everything after the hole was delivered). The
    RACK-style reorder timer must re-mark and resend it well before the
    4 ms RTO fires."""
    net = small_star()
    drop = DropFilter(net.switches[0])
    drop.drop_seq_once(3)
    drop.drop_seq_once(3)  # the retransmission too
    _, _, record = run_flow(net, "dcqcn-sack", size=20_000, config=roce_config())
    assert record.completed
    assert record.timeouts == 0
    assert record.fct_ns < 1 * MILLIS


def test_last_packet_smaller_payload():
    net = small_star()
    _, _, record = run_flow(net, "dcqcn-sack", size=2_500, config=roce_config())
    assert record.completed
    assert record.tx_bytes == 2_500  # 1000 + 1000 + 500
