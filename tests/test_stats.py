"""Tests for the stats collector and percentile helpers."""

import pickle
from types import SimpleNamespace

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.net.packet import Color, Packet, PacketKind
from repro.stats.collector import NetStats, Reservoir
from repro.stats.percentile import percentile, summarize
from repro.transport.base import ByteStreamReceiver, FlowSpec, TransportConfig
from repro.transport.roce import RoceReceiver


def _packet(color: Color, kind: PacketKind, size: int) -> Packet:
    packet = Packet(1, 0, 1, kind, seq=0, payload=max(0, size - 48), size=size)
    packet.color = color
    return packet


def test_percentile_basic():
    samples = list(range(1, 101))
    assert percentile(samples, 50) == 50.5
    assert percentile(samples, 99) > 98
    assert percentile([], 99) == 0.0


def test_summarize_fields():
    s = summarize([1.0, 2.0, 3.0, 4.0])
    assert s["count"] == 4
    assert s["mean"] == 2.5
    assert s["max"] == 4.0
    assert summarize([])["count"] == 0


def test_flow_lifecycle():
    stats = NetStats()
    rec = stats.new_flow(1, 0, 1, 1000, start_ns=100, group="fg")
    assert not rec.completed
    assert rec.fct_ns is None
    rec.end_rx_ns = 600
    assert rec.completed
    assert rec.fct_ns == 500


def test_fct_lists_by_group():
    stats = NetStats()
    a = stats.new_flow(1, 0, 1, 10, 0, "fg")
    b = stats.new_flow(2, 0, 1, 10, 0, "bg")
    a.end_rx_ns = 100
    b.end_rx_ns = 300
    assert stats.fct_list("fg") == [100]
    assert stats.fct_list("bg") == [300]
    assert stats.fct_summary("fg")["count"] == 1


def test_timeouts_per_1k():
    stats = NetStats()
    for i in range(10):
        rec = stats.new_flow(i, 0, 1, 10, 0, "fg")
        rec.end_rx_ns = 1
    stats.flows[0].timeouts = 2
    assert stats.timeouts_per_1k_flows() == 200.0


def test_timeouts_per_1k_empty():
    assert NetStats().timeouts_per_1k_flows() == 0.0


def test_important_loss_rate():
    stats = NetStats()
    assert stats.important_loss_rate() == 0.0
    stats.green_data_packets = 1000
    stats.drops_green_data = 1
    assert stats.important_loss_rate() == 0.001


def test_important_loss_rate_excludes_control_drops():
    # A dropped green *control* packet (ACKs are forced green) must not
    # count against the green *data* send volume: the pre-fix counter
    # lumped both into the numerator while the denominator only counted
    # data packets.
    stats = NetStats()
    stats.green_data_packets = 1000
    stats.count_drop(_packet(Color.GREEN, PacketKind.ACK, size=60))
    assert stats.drops_green == 1
    assert stats.drops_green_ctrl == 1
    assert stats.drops_green_data == 0
    assert stats.important_loss_rate() == 0.0
    stats.count_drop(_packet(Color.GREEN, PacketKind.DATA, size=1460))
    assert stats.drops_green_data == 1
    assert stats.important_loss_rate() == 0.001


def test_count_drop_splits_by_color_and_kind():
    stats = NetStats()
    stats.count_drop(_packet(Color.GREEN, PacketKind.DATA, size=1460))
    stats.count_drop(_packet(Color.RED, PacketKind.DATA, size=1460))
    stats.count_drop(_packet(Color.RED, PacketKind.DATA, size=1460))
    stats.count_drop(_packet(Color.GREEN, PacketKind.NACK, size=60))
    assert stats.drops_green == 2
    assert stats.drops_red == 2
    assert stats.drops_green_data == 1
    assert stats.drops_red_data == 2
    assert stats.drops_green_ctrl == 1
    assert stats.drops_red_ctrl == 0
    assert stats.drop_bytes == 1460 * 3 + 60


def test_important_fraction():
    stats = NetStats()
    assert stats.important_fraction_bytes() == 0.0
    stats.green_data_bytes = 100
    stats.red_data_bytes = 900
    assert stats.important_fraction_bytes() == 0.1


def test_incomplete_flows():
    stats = NetStats()
    stats.new_flow(1, 0, 1, 10, 0, "fg")
    done = stats.new_flow(2, 0, 1, 10, 0, "bg")
    done.end_rx_ns = 5
    assert stats.incomplete_flows() == 1
    assert stats.incomplete_flows("bg") == 0


def test_sample_reservoir_caps(monkeypatch):
    from repro.stats import collector

    # The reservoirs freeze their capacity at NetStats construction, so
    # the cap must be patched before building the collector.
    monkeypatch.setattr(collector, "MAX_SAMPLES", 10)
    stats = NetStats()
    for i in range(100):
        stats.rtt_samples("fg").add(i)
        stats.delivery_samples.add(i)
    assert len(stats.rtt_samples_fg) == 10
    assert len(stats.delivery_samples) == 10
    assert stats.rtt_samples_fg.seen == 100


def test_reservoir_uniform_not_keep_first():
    # Keep-first-N truncation would retain exactly range(10); Algorithm R
    # keeps a uniform sample, so late elements must appear.
    res = Reservoir(10, seed="t")
    for i in range(1000):
        res.add(i)
    assert len(res) == 10
    assert res.seen == 1000
    assert any(v >= 10 for v in res), "reservoir degenerated to keep-first-N"
    assert all(0 <= v < 1000 for v in res)


@pytest.mark.parametrize("filled_by", ["add", "kernel"])
def test_reservoir_keeps_every_position_equally_often(filled_by):
    """Chi-square over stream positions: 2 000 seeded reservoirs of 8 out
    of 64 keep each position 250 times in expectation. The ``kernel``
    case fills the reservoir the way the C host kernel does, appending
    below capacity without calling ``add``. 63 degrees of freedom: 103.4
    is the 0.1 % critical value."""
    capacity, stream, trials = 8, 64, 2_000
    kept = [0] * stream
    for seed in range(trials):
        res = Reservoir(capacity, seed=seed)
        if filled_by == "kernel":
            res._samples.extend(range(capacity))
            res.seen = capacity
        for i in range(len(res), stream):
            res.add(i)
        assert len(res) == capacity and len(set(res)) == capacity
        for value in res:
            kept[value] += 1
    expected = trials * capacity / stream
    assert sum((count - expected) ** 2 / expected for count in kept) < 103.4


def test_reservoir_deterministic_per_seed():
    def fill(seed):
        res = Reservoir(8, seed=seed)
        for i in range(500):
            res.add(i)
        return list(res)

    assert fill("a") == fill("a")
    assert fill("a") != fill("b")


def test_reservoir_sequence_protocol():
    res = Reservoir(16, seed=0)
    for i in range(5):
        res.add(i * 10)
    # Below capacity the reservoir holds the stream verbatim, in order.
    assert len(res) == 5
    assert list(res) == [0, 10, 20, 30, 40]
    assert res[2] == 20
    assert res[-1] == 40


def test_reservoir_rejects_bad_capacity():
    with pytest.raises(ValueError):
        Reservoir(0)


def test_goodput():
    stats = NetStats()
    rec = stats.new_flow(1, 0, 1, 1_000_000, 0, "bg")
    rec.end_rx_ns = 1_000_000
    # 1 MB over 1 ms => 8 Gbps.
    assert stats.goodput_bps("bg", 1_000_000) == 8e9
    assert stats.goodput_bps("bg", 0) == 0.0


# -- incomplete_flows() is counted, not scanned ----------------------------------


def _scan_incomplete(stats, group=None):
    """The scan ``NetStats.incomplete_flows`` replaced."""
    return sum(1 for r in stats.flows.values()
               if r.end_rx_ns is None and (group is None or r.group == group))


def _shard_payload(stats, flows, foreign):
    """What one shard worker hands ``repro.sim.sharding._merge``."""
    from repro.sim import sharding

    return {
        "counters": {name: getattr(stats, name) for name in sharding._COUNTER_FIELDS},
        "flows": flows,
        "foreign": foreign,
        "reservoirs": {name: ([], 0) for name in sharding._RESERVOIR_FIELDS},
        "queue_samples": [], "ticks": 0, "events": 0, "artifacts": 0,
        "paused_ns": 0, "path_churn": [0, 0], "port_count": 0, "now": 0,
    }


class LivenessMachine(RuleBasedStateMachine):
    """Every writer of flow liveness that exists: ``new_flow``, both
    receivers, direct assignment of ``end_rx_ns`` (also twice, also
    back to None), ``retire_flow``, a pickle round trip (checkpoint)
    and the sharded merge, which builds records outside ``new_flow``."""

    GROUPS = ("fg", "bg", "other")

    def __init__(self):
        super().__init__()
        self.stats = NetStats()
        self.engine = SimpleNamespace(now=0)
        self.host = SimpleNamespace(engine=self.engine, send=lambda packet: None,
                                    register_endpoint=lambda flow_id, endpoint: None)
        self.next_id = 0

    def _pick(self, data):
        return data.draw(st.sampled_from(sorted(self.stats.flows)))

    @rule(group=st.sampled_from(GROUPS), reuse_id=st.booleans())
    def new_flow(self, group, reuse_id):
        flow_id = self.next_id - 1 if reuse_id and self.next_id else self.next_id
        self.next_id = max(self.next_id, flow_id + 1)
        self.stats.new_flow(flow_id, 0, 1, 1000, self.engine.now, group)

    @precondition(lambda self: self.stats.flows)
    @rule(data=st.data(), family=st.sampled_from(("bytestream", "roce")))
    def receiver_completes(self, data, family):
        flow_id = self._pick(data)
        self.engine.now += 7
        spec = FlowSpec(flow_id=flow_id, src=0, dst=1, size=1000)
        config = TransportConfig()
        if family == "bytestream":
            receiver = ByteStreamReceiver(self.host, spec, config, self.stats)
        else:
            receiver = RoceReceiver(self.host, spec, config, self.stats)
        receiver.on_packet(Packet(flow_id, 0, 1, PacketKind.DATA, seq=0, payload=1000))
        assert self.stats.flows[flow_id].end_rx_ns == self.engine.now

    @precondition(lambda self: self.stats.flows)
    @rule(data=st.data(), value=st.one_of(st.none(), st.integers(0, 10**9)))
    def assign_directly(self, data, value):
        self.stats.flows[self._pick(data)].end_rx_ns = value

    @precondition(lambda self: self.stats.flows)
    @rule(data=st.data())
    def retire(self, data):
        flow_id = self._pick(data)
        completed = self.stats.flows[flow_id].completed
        assert self.stats.retire_flow(flow_id) == completed
        assert (flow_id in self.stats.flows) != completed

    @rule()
    def checkpoint_round_trip(self):
        self.stats = pickle.loads(pickle.dumps(self.stats, pickle.HIGHEST_PROTOCOL))

    @rule(data=st.data())
    def sharded_merge(self, data):
        """Split the records over two shards (cross-shard flows leave
        their ``end_rx_ns`` in the other shard's inert replica) and
        continue on the merged collector."""
        from repro.experiments.scenarios import ScenarioConfig
        from repro.sim.sharding import _merge

        rows = [(r.flow_id, r.src, r.dst, r.size, r.start_ns, r.group, r.end_rx_ns,
                 r.end_ack_ns, r.timeouts, r.retx_bytes, r.tx_bytes, r.final_rto_ns,
                 r.final_srtt_ns) for r in self.stats.flows.values()]
        crossing = {row[0] for row in rows if data.draw(st.booleans())}
        owner = [row[:6] + (None,) + row[7:] if row[0] in crossing else row for row in rows]
        replica = [row for row in rows if row[0] in crossing]
        before = {g: _scan_incomplete(self.stats, g) for g in (None,) + self.GROUPS}
        merged = _merge(ScenarioConfig(), [
            _shard_payload(self.stats, owner, []),
            _shard_payload(NetStats(), replica, sorted(crossing)),
        ], duration_ns=0).stats
        assert {g: merged.incomplete_flows(g) for g in before} == before
        merged.retired_flows = dict(self.stats.retired_flows)
        self.stats = merged

    @invariant()
    def counted_equals_scanned(self):
        for group in (None,) + self.GROUPS:
            assert self.stats.incomplete_flows(group) == _scan_incomplete(self.stats, group)
        assert self.stats.flow_count() == len(self.stats.flows) + sum(
            self.stats.retired_flows.values())


LivenessMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None)
test_incomplete_flows_counts_equal_the_scan = LivenessMachine.TestCase
