"""Tests for the runtime invariant auditor (repro.audit).

Each corruption test mutates live simulation state in a way a checker
must catch, then asserts :class:`AuditError` is raised and carries a
structured trace. The clean-run tests assert the auditor rides along a
real scenario without violations and without keeping the engine alive.
"""

import json

import pytest

from repro.audit import (
    AuditConfig,
    AuditError,
    Auditor,
    EventRing,
    check_clock,
    check_flow_ledger,
)
from repro.experiments.scale import Scale
from repro.experiments.scenarios import ScenarioConfig, run_scenario
from repro.net.packet import Color, Packet, PacketKind
from repro.switchsim.pfc import PfcConfig
from tests.util import small_star

FAST = Scale("fast", num_spines=1, num_tors=2, hosts_per_tor=2,
             bg_flows=8, incast_events=1, incast_flows_per_sender=2)


def _audited(net, **config_kw):
    return Auditor(net, AuditConfig(**config_kw)).install()


def _data_packet(color=Color.RED, flow_id=7, seq=0, payload=1000):
    packet = Packet(flow_id, 0, 1, PacketKind.DATA, seq=seq, payload=payload)
    packet.color = color
    return packet


# -- EventRing ----------------------------------------------------------------


def test_ring_caps_and_counts():
    ring = EventRing(4)
    for i in range(10):
        ring.record("enqueue", time_ns=i, device="tor0", flow=i)
    assert len(ring) == 4
    assert ring.recorded == 10
    # Only the newest four survive.
    assert [e["time_ns"] for e in ring.to_list()] == [6, 7, 8, 9]


def test_ring_to_list_omits_empty_fields():
    ring = EventRing(8)
    ring.record("audit_tick", time_ns=5)
    ring.record("drop", time_ns=6, device="tor0", flow=1, seq=2, size=3,
                color="GREEN", port=0, info="pool")
    entries = ring.to_list()
    assert entries[0] == {"time_ns": 5, "kind": "audit_tick"}
    assert entries[1]["info"] == "pool"
    assert entries[1]["color"] == "GREEN"
    # Valid JSON end to end.
    assert json.loads(ring.to_json())[1]["device"] == "tor0"


def test_ring_rejects_bad_capacity():
    with pytest.raises(ValueError):
        EventRing(0)


def test_audit_error_report_roundtrip(tmp_path):
    error = AuditError(["v1", "v2", "v3", "v4"],
                       [{"time_ns": 1, "kind": "drop"}], time_ns=42)
    assert "v1" in str(error)
    assert "+1 more" in str(error)
    assert isinstance(error, AssertionError)
    path = tmp_path / "audit.json"
    error.dump(str(path))
    loaded = json.loads(path.read_text())
    assert loaded == error.to_dict()
    assert loaded["time_ns"] == 42
    assert loaded["violations"] == ["v1", "v2", "v3", "v4"]
    assert loaded["trace"][0]["kind"] == "drop"


# -- corruption detection -----------------------------------------------------


def test_detects_buffer_conservation_violation():
    net = small_star()
    auditor = _audited(net)
    net.switches[0].buffer.used += 100  # no packet backs these bytes
    with pytest.raises(AuditError) as excinfo:
        auditor.check_now()
    assert "SharedBuffer.used" in str(excinfo.value)


def test_detects_color_accounting_violation():
    net = small_star()
    auditor = _audited(net)
    queue = net.switches[0].queues[0]
    queue.red_bytes = 10  # queue is empty — phantom red bytes
    with pytest.raises(AuditError) as excinfo:
        auditor.check_now()
    assert "red_bytes" in str(excinfo.value)


def test_detects_pfc_counter_violation():
    net = small_star(pfc=PfcConfig(enabled=True))
    switch = net.switches[0]
    assert switch.pfc is not None
    auditor = _audited(net)
    switch.pfc.ingress_bytes[0] = -60
    with pytest.raises(AuditError) as excinfo:
        auditor.check_now()
    assert "negative" in str(excinfo.value)


def test_detects_flow_ledger_violation():
    net = small_star()
    auditor = _audited(net)
    record = net.stats.new_flow(1, 0, 1, size=1000, start_ns=0, group="fg")
    record.tx_bytes = 500
    record.retx_bytes = 600  # retransmitted more than ever sent
    with pytest.raises(AuditError) as excinfo:
        auditor.check_now()
    assert "retx_bytes" in str(excinfo.value)


def test_detects_timeout_sum_mismatch():
    net = small_star()
    record = net.stats.new_flow(1, 0, 1, size=1000, start_ns=0, group="fg")
    record.timeouts = 3  # run-wide counter was never incremented
    assert any("timeouts" in v for v in check_flow_ledger(net))


def test_detects_clock_regression():
    net = small_star()
    assert check_clock(net, last_now=0) == []
    violations = check_clock(net, last_now=net.engine.now + 5)
    assert any("clock moved backwards" in v for v in violations)


def test_detects_green_color_drop():
    net = small_star()
    auditor = _audited(net)
    switch = net.switches[0]
    queue = switch.queues[0]
    with pytest.raises(AuditError) as excinfo:
        auditor.on_drop(switch, _data_packet(Color.GREEN), queue, "color")
    error = excinfo.value
    assert "green packet" in str(error)
    assert error.trace[-1]["kind"] == "drop"
    assert error.trace[-1]["color"] == "GREEN"


def test_red_color_drop_is_faithful():
    # Red occupancy already past K: dropping more red is exactly §4.
    net = small_star(color_threshold_bytes=500)
    auditor = _audited(net)
    switch = net.switches[0]
    auditor.on_drop(switch, _data_packet(Color.RED), switch.queues[0], "color")
    assert auditor.ring.to_list()[-1]["info"] == "color"


def test_detects_unjustified_red_color_drop():
    # A "color" drop whose red occupancy is still within K is a lie —
    # and so is any color drop on a switch with coloring disabled.
    net = small_star(color_threshold_bytes=1_000_000)
    auditor = _audited(net)
    switch = net.switches[0]
    with pytest.raises(AuditError) as excinfo:
        auditor.on_drop(switch, _data_packet(Color.RED), switch.queues[0], "color")
    assert "unjustified color drop" in str(excinfo.value)


def test_detects_color_drop_outside_color_classes():
    # §5.3: legacy traffic in its own class is never red-dropped, however
    # far past K that class's red occupancy is.
    net = small_star(color_threshold_bytes=500, num_traffic_classes=2,
                     color_classes=(0,))
    _audited(net)
    switch = net.switches[0]
    legacy = _data_packet(Color.RED)
    legacy.tclass = 1
    with pytest.raises(AuditError) as excinfo:
        switch._drop(legacy, "color", switch.queue_for(1, tclass=1))
    assert "outside color_classes" in str(excinfo.value)
    # The same drop in the TLT-enabled class is faithful, and so is an
    # out-of-range class, which the pipeline clamps to class 0.
    for tclass in (0, 7):
        packet = _data_packet(Color.RED)
        packet.tclass = tclass
        switch._drop(packet, "color", switch.queue_for(1, tclass=0))


def test_detects_phantom_pool_drop():
    # A "pool exhausted" drop while the pool still has room is a lie.
    net = small_star()
    auditor = _audited(net)
    switch = net.switches[0]
    with pytest.raises(AuditError) as excinfo:
        auditor.on_drop(switch, _data_packet(Color.GREEN), switch.queues[0], "pool")
    assert "bytes free" in str(excinfo.value)


def test_detects_dynamic_drop_on_lossless_switch():
    net = small_star(pfc=PfcConfig(enabled=True))
    auditor = _audited(net)
    switch = net.switches[0]
    with pytest.raises(AuditError) as excinfo:
        auditor.on_drop(switch, _data_packet(Color.RED), switch.queues[0],
                        "dynamic", port_occupancy=0)
    assert "lossless" in str(excinfo.value)


def test_detects_unjustified_dynamic_drop():
    net = small_star()
    auditor = _audited(net)
    switch = net.switches[0]
    # Occupancy far below the dynamic threshold on an empty pool.
    with pytest.raises(AuditError) as excinfo:
        auditor.on_drop(switch, _data_packet(Color.RED), switch.queues[0],
                        "dynamic", port_occupancy=0)
    assert "unjustified" in str(excinfo.value)


def test_audit_error_dump_path(tmp_path):
    path = tmp_path / "violation.json"
    net = small_star()
    auditor = _audited(net, dump_path=str(path))
    net.switches[0].buffer.used += 1
    with pytest.raises(AuditError):
        auditor.check_now()
    report = json.loads(path.read_text())
    assert report["violations"]


# -- attachment lifecycle -----------------------------------------------------


def test_install_is_idempotent_and_detach_unhooks():
    net = small_star()
    auditor = Auditor(net)
    assert auditor.install() is auditor
    auditor.install()
    switch = net.switches[0]
    assert switch.audit is auditor
    assert net.stats.audit_ring is auditor.ring
    auditor.detach()
    assert switch.audit is None
    assert net.stats.audit_ring is None
    # Detached: no ticks left to keep the engine busy.
    assert net.engine.peek_time() is None


def test_tick_does_not_keep_engine_alive():
    net = small_star()
    auditor = _audited(net, interval_ns=100)
    fired = []
    net.engine.schedule(1000, fired.append, 1)
    net.engine.run()
    assert fired == [1]
    # The engine drained: the audit tick stopped rescheduling itself.
    assert net.engine.peek_time() is None
    assert auditor.checks_run >= 2


# -- scenario integration -----------------------------------------------------


def test_clean_scenario_passes_audit():
    result = run_scenario(ScenarioConfig(transport="dctcp", scale=FAST, audit=True))
    assert result.auditor is not None
    assert result.auditor.checks_run >= 2
    assert result.auditor.ring.recorded > 0
    assert result.stats.incomplete_flows() == 0


def test_scenario_audit_disabled_explicitly():
    result = run_scenario(ScenarioConfig(
        transport="dctcp", scale=FAST, audit=False))
    assert result.auditor is None


def test_fig08_micro_run_passes_audit(monkeypatch):
    # The threshold sweep exercises color-aware dropping, where the
    # green-drop faithfulness check has the most to say.
    monkeypatch.setenv("TLT_AUDIT", "1")
    from repro.experiments import fig08_threshold_sweep as exp

    rows = exp.run(FAST, thresholds=(400_000,))
    assert rows


def test_audited_scenario_with_pfc_and_tlt():
    # PFC + TLT exercises the lossless checkers and color accounting.
    result = run_scenario(ScenarioConfig(
        transport="dcqcn", tlt=True, pfc=True, scale=FAST, audit=True))
    assert result.auditor is not None
    assert result.auditor.checks_run >= 2
    assert result.stats.incomplete_flows() == 0


def test_audited_scenario_with_corruption_faults():
    """Fault drops are not congestion drops: a corrupting run under
    audit must leave every checker silent (the §4 green-drop check only
    fires on congestion loss) while fault counters fill up."""
    spec = {"events": [
        {"time_ns": 0, "kind": "corruption_on", "target": "tor0",
         "params": {"model": "bernoulli", "rate": 0.01}},
        {"time_ns": 0, "kind": "corruption_on", "target": "tor1",
         "params": {"model": "gilbert_elliott", "p_enter": 0.005,
                    "p_exit": 0.2, "loss_bad": 1.0}},
    ]}
    result = run_scenario(ScenarioConfig(
        transport="dctcp", tlt=True, scale=FAST, audit=True, faults=spec))
    assert result.auditor is not None
    assert result.auditor.checks_run >= 2
    stats = result.stats
    assert stats.drops_fault > 0
    assert stats.drops_green == 0
    # Fault drops land in the forensic ring, tagged as such.
    kinds = {e["kind"] for e in result.auditor.ring.to_list()}
    assert result.auditor.ring.recorded > 0
    fault_entries = [e for e in result.auditor.ring.to_list()
                     if e["kind"] == "fault_drop"]
    if fault_entries:  # ring is bounded; entries may have rotated out
        assert fault_entries[0]["info"] in ("corruption", "blackhole")
    assert "drop" not in kinds or stats.drops_red > 0
