"""Sharded execution: bit-exactness contract and shard-boundary units.

The system-level tests assert the contract of ``repro.sim.sharding``
directly against the determinism suite's pinned single-core
fingerprints: running the fabric across N shard workers is an
execution strategy, not an approximation. The unit tests cover the
shard boundary itself — conservative-lookahead window size, cut-port
outbox emission, cross-shard batch tie ordering, and timer-wheel
events landing exactly on a window edge.
"""

from dataclasses import replace

import pytest

from repro.experiments.parallel import Job
from repro.experiments.scale import TINY
from repro.experiments.scenarios import RunControl, ScenarioConfig, run_scenario
from repro.net.packet import Packet, PacketKind, packet_to_wire
from repro.sim.engine import Engine
from repro.sim.sharding import MSG_PACKET, CutPort, ShardPlan, _ShardWorker

from tests.test_determinism import CONFIGS, EXPECTED, fingerprint


def _config(**overrides) -> ScenarioConfig:
    base = dict(transport="dctcp", tlt=True, scale=TINY, seed=3, audit=False)
    base.update(overrides)
    return ScenarioConfig(**base)


# -- contract: sharded == single-core, bit for bit ---------------------------


@pytest.mark.parametrize("shards", [2, 4])
def test_sharded_fingerprint_matches_single_core(shards, monkeypatch):
    monkeypatch.setenv("TLT_SHARD_INLINE", "1")
    assert fingerprint(_config(shards=shards)) == EXPECTED["dctcp_tlt"]


def test_sharded_fingerprint_matches_for_hpcc(monkeypatch):
    monkeypatch.setenv("TLT_SHARD_INLINE", "1")
    config = replace(CONFIGS["hpcc_tlt"](), shards=2)
    assert fingerprint(config) == EXPECTED["hpcc_tlt"]


def test_shards_one_is_the_plain_single_core_path():
    # shards=1 must not touch the sharding machinery at all.
    assert fingerprint(_config(shards=1)) == EXPECTED["dctcp_tlt"]


def test_flow_records_match_single_core_for_both_flow_kinds(monkeypatch):
    """Every merged FlowRecord — same-shard and cross-shard flows alike —
    is field-identical to the single-core run's record."""
    single = run_scenario(_config())
    monkeypatch.setenv("TLT_SHARD_INLINE", "1")
    sharded = run_scenario(_config(shards=2))

    a, b = single.net.stats.flows, sharded.net.stats.flows
    assert set(a) == set(b)
    fields = ("src", "dst", "size", "start_ns", "group", "end_rx_ns",
              "end_ack_ns", "timeouts", "retx_bytes", "tx_bytes")
    for flow_id, record in a.items():
        mirror = b[flow_id]
        for field in fields:
            assert getattr(record, field) == getattr(mirror, field), (
                f"flow {flow_id} field {field}")

    # The TINY fabric split two ways must exercise both topological
    # cases, or this test proves less than it claims.
    plan = ShardPlan(2, TINY.num_spines, TINY.num_tors, TINY.hosts_per_tor)
    owners = {(plan.host_owner(r.src), plan.host_owner(r.dst)) for r in a.values()}
    assert any(src == dst for src, dst in owners), "no same-shard flow in workload"
    assert any(src != dst for src, dst in owners), "no cross-shard flow in workload"


@pytest.mark.parametrize("inline", ["1", "0"])
def test_audit_error_in_a_shard_window_is_finished_like_any_other(
        inline, monkeypatch, tmp_path):
    """A violation raised inside a shard's window (not its final check)
    still snapshots the flight recorder and closes that shard's streams,
    and reaches the caller as the AuditError it is, from an inline
    worker and through the pipe of a forked one."""
    import glob
    import json

    from repro.audit import AuditError

    monkeypatch.setenv("TLT_SHARD_INLINE", inline)
    window = _ShardWorker.window

    def corrupting_window(self, until, messages, stop_sampler):
        if self.shard_index == 1 and until >= 300_000:
            # Bytes no packet backs, on a switch this shard owns: the
            # next audit tick fails buffer conservation.
            owned = next(sw for sw in self.net.switches
                         if self.plan.device_owner(sw) == 1)
            owned.buffer.used += 1
        return window(self, until, messages, stop_sampler)

    monkeypatch.setattr(_ShardWorker, "window", corrupting_window)
    out = str(tmp_path / "tele")
    with pytest.raises(AuditError) as raised:
        run_scenario(_config(shards=2, audit=True, telemetry=out))
    assert any("SharedBuffer.used" in violation for violation in raised.value.violations)
    assert raised.value.trace

    flights = [json.load(open(path))
               for path in glob.glob(f"{out}/flight_*_sh1_*.json")]
    assert [f["trigger"]["kind"] for f in flights].count("audit_error") == 1
    assert glob.glob(f"{out}/run_*_sh1.prom")  # finalized, not left open


def test_cache_key_ignores_shards():
    # Sharding is bit-identical by contract, so a sharded and a plain
    # run must share one result-cache entry.
    plain = Job(index=0, config=_config(), seed=3)
    sharded = Job(index=0, config=_config(shards=4), seed=3)
    assert plain.cache_key() == sharded.cache_key()


# -- shard plan and lookahead ------------------------------------------------


def test_shard_plan_round_robins_subtrees():
    plan = ShardPlan(2, num_spines=1, num_tors=2, hosts_per_tor=3)
    assert [plan.tor_owner(i) for i in range(2)] == [0, 1]
    # Spines are offset by num_tors so they don't pile onto shard 0.
    assert plan.spine_owner(0) == 0
    # Hosts follow their ToR.
    assert [plan.host_owner(h) for h in range(6)] == [0, 0, 0, 1, 1, 1]


def test_lookahead_is_min_cut_link_delay(monkeypatch):
    monkeypatch.setenv("TLT_SHARD_INLINE", "1")
    config = _config()
    worker = _ShardWorker(config, RunControl(shards=2), 0, manage_gc=False)
    meta = worker.setup()
    assert meta["lookahead"] == config.resolved_link_delay_ns
    # Owned ports with a remote peer became live CutPorts; the rest of
    # the registry stayed plain replicas.
    live = [p for p in worker.cut_ports if type(p) is CutPort]
    assert live and all(p.shard_out is worker.outbox for p in live)
    assert any(type(p) is not CutPort for p in worker.cut_ports)


# -- cross-shard batches -----------------------------------------------------


def test_cut_port_outbox_preserves_emission_order(monkeypatch):
    monkeypatch.setenv("TLT_SHARD_INLINE", "1")
    config = _config()
    worker = _ShardWorker(config, RunControl(shards=2), 0, manage_gc=False)
    worker.setup()
    port = next(p for p in worker.cut_ports if type(p) is CutPort)
    engine = worker.engine

    base = port.wire_seq
    for flow_id in (11, 12):
        pkt = Packet(flow_id, 0, 5, PacketKind.DATA, payload=1000)
        port._tx_done(pkt)

    batch = [entry for entry in worker.outbox if entry[3] == MSG_PACKET]
    assert [entry[4][0] for entry in batch] == [11, 12]
    # Arrival stamps are emission + exactly one link delay, and each
    # frame carries the port's own wire-sequence key (FIFO-increasing).
    assert all(entry[1] == engine.now + port.delay_ns for entry in batch)
    assert all(entry[0] == port.cut_id for entry in batch)
    assert [entry[2] for entry in batch] == [base, base + 1]


def test_same_nanosecond_batch_delivered_in_wire_seq_order(monkeypatch):
    """Remote packets arriving at the same nanosecond must be delivered
    in wire-sequence order — the emitting port's heap key, stamped at
    emission — not in staging or pipe-arrival order."""
    monkeypatch.setenv("TLT_SHARD_INLINE", "1")
    config = _config()
    worker = _ShardWorker(config, RunControl(shards=2), 0, manage_gc=False)
    meta = worker.setup()
    # An inbound direction: the TX side lives in the other shard, so
    # its peer (our side) is a live local device.
    cut_id = next(i for i, dst in enumerate(meta["route"]) if dst == 0)
    port = worker.cut_ports[cut_id]
    receiver = port.peer.owner

    seen = []
    inner = receiver.receive

    def spy(packet, in_port):
        seen.append(packet.flow_id)
        return inner(packet, in_port)

    receiver.receive = spy
    arrival = worker.engine.now + port.delay_ns
    # The local replica of the remote TX port carries the same
    # construction rank the owning shard's live port has, so its
    # wire_seq is exactly the key the remote side would stamp.
    base = port.wire_seq
    messages = [
        (arrival, base + offset, cut_id, MSG_PACKET,
         packet_to_wire(Packet(flow_id, 0, 5, PacketKind.DATA, payload=1000)))
        for offset, flow_id in ((2, 23), (0, 21), (1, 22))
    ]
    worker.window(arrival, messages, False)
    assert seen == [21, 22, 23]


# -- run_window at the boundary ----------------------------------------------


def test_run_window_executes_inclusive_boundary_and_advances_clock():
    engine = Engine()
    fired = []
    engine.schedule_at(100, fired.append, "a")
    engine.schedule_at(250, fired.append, "b")
    engine.run_window(100)
    assert fired == ["a"] and engine.now == 100
    engine.run_window(249)
    assert fired == ["a"] and engine.now == 249
    engine.run_window(400)
    assert fired == ["a", "b"] and engine.now == 400


def test_run_window_fires_wheel_parked_rto_on_window_edge():
    """An RTO parked in the hierarchical timer wheel must fire in the
    window whose inclusive upper edge equals the timer's deadline —
    wheel flushing cannot defer it to the next window."""
    engine = Engine()
    fired = []
    deadline = 5_000_000  # far enough out to be wheel-parked
    engine.schedule_timer_at(deadline, fired.append, "rto")
    engine.run_window(deadline - 1)
    assert not fired and engine.now == deadline - 1
    engine.run_window(deadline)
    assert fired == ["rto"] and engine.now == deadline
