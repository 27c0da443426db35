"""Tests for fault injection and the ASCII renderers."""

import random

import pytest

from repro.core.config import TltConfig
from repro.faults import FaultInjector
from repro.net.packet import PacketKind
from repro.stats.ascii import ascii_cdf, ascii_histogram
from repro.transport.base import FlowSpec, TransportConfig
from repro.transport.registry import create_flow

from tests.util import run_flow, small_star


def test_injector_probability_validation():
    net = small_star()
    with pytest.raises(ValueError):
        FaultInjector(net.switches[0], 1.5)


def test_zero_rate_never_drops():
    net = small_star()
    injector = FaultInjector(net.switches[0], 0.0)
    _, _, record = run_flow(net, "tcp", size=50_000)
    assert record.completed
    assert injector.corrupted == 0


def test_full_rate_drops_everything():
    net = small_star()
    injector = FaultInjector(net.switches[0], 1.0)
    spec = FlowSpec(flow_id=net.new_flow_id(), src=0, dst=1, size=1_460)
    create_flow("tcp", net, spec, TransportConfig(base_rtt_ns=4_000))
    net.engine.run(until=10_000_000)
    assert injector.corrupted > 0
    assert not net.stats.flows[spec.flow_id].completed


def test_selector_limits_targets():
    net = small_star()
    injector = FaultInjector(
        net.switches[0], 1.0, selector=lambda p: p.kind == PacketKind.ACK
    )
    _, _, record = run_flow(net, "tcp", size=5_000, until=100_000_000)
    # Data flows through; only ACKs die, so the sender times out but the
    # receiver got everything.
    assert injector.corrupted > 0
    assert record.end_rx_ns is not None


def test_corruption_survivable_with_tlt_fallback():
    """A moderate corruption rate: TLT flows still complete (via RTO
    fallback when a green packet is corrupted)."""
    net = small_star()
    FaultInjector(net.switches[0], 0.02, random.Random(3))
    _, _, record = run_flow(net, "dctcp", size=100_000, tlt=TltConfig(),
                            until=20_000_000_000)
    assert record.completed


def test_ascii_cdf_output():
    text = ascii_cdf([1, 2, 3, 4, 100], label="demo", unit=" ms")
    assert "demo" in text
    assert "p50" in text and "p100" in text
    assert "#" in text
    assert ascii_cdf([], label="x") == "x: (no samples)"


def test_ascii_histogram_output():
    text = ascii_histogram(list(range(100)), bins=5, label="h")
    assert text.count("\n") == 5  # label + 5 buckets
    assert ascii_histogram([]) == ": (no samples)"


# -- seeded corruption determinism (repro.faults.models) ----------------------


def _corrupted_set(seed):
    """Run one lossy flow; return the (flow, seq, color) fault-drop set."""
    from repro.audit import EventRing

    net = small_star()
    ring = EventRing(8192)
    net.stats.audit_ring = ring
    FaultInjector(net.switches[0], 0.05, seed=seed, stats=net.stats)
    run_flow(net, "tcp", size=100_000, until=30_000_000_000)
    return {
        (e["flow"], e["seq"], e["color"])
        for e in ring.to_list()
        if e["kind"] == "fault_drop"
    }


def test_different_seeds_corrupt_different_packet_sets():
    """The injector RNG derives from (scenario seed, device name): a
    --seeds sweep must sample *different* corruption patterns."""
    first, second = _corrupted_set(1), _corrupted_set(2)
    assert first and second
    assert first != second


def test_same_seed_corruption_is_reproducible():
    assert _corrupted_set(7) == _corrupted_set(7)


def test_fault_drops_use_fault_counters_not_congestion_counters():
    net = small_star()
    FaultInjector(net.switches[0], 1.0, stats=net.stats)
    spec = FlowSpec(flow_id=net.new_flow_id(), src=0, dst=1, size=10_000)
    create_flow("tcp", net, spec, TransportConfig(base_rtt_ns=4_000))
    net.engine.run(until=50_000_000)
    stats = net.stats
    assert stats.drops_fault > 0
    assert stats.drops_fault_bytes > 0
    # Congestion-loss accounting (what the §4 checker audits) untouched.
    assert stats.drops_green == 0 and stats.drops_red == 0
    assert stats.drop_bytes == 0


# -- loss models --------------------------------------------------------------


def test_gilbert_elliott_matches_stationary_loss_rate():
    from repro.faults import GilbertElliottLoss

    model = GilbertElliottLoss(p_enter=0.05, p_exit=0.2, loss_bad=1.0)
    rng = random.Random(1)
    decisions = [model.sample(rng) for _ in range(20_000)]
    stationary = 0.05 / (0.05 + 0.2)
    assert abs(sum(decisions) / len(decisions) - stationary) < 0.05


def test_gilbert_elliott_losses_are_bursty():
    from repro.faults import GilbertElliottLoss

    model = GilbertElliottLoss(p_enter=0.05, p_exit=0.2, loss_bad=1.0)
    rng = random.Random(2)
    decisions = [model.sample(rng) for _ in range(20_000)]
    losses = sum(decisions[:-1])
    consecutive = sum(1 for a, b in zip(decisions, decisions[1:]) if a and b)
    # P(loss | previous loss) ~= 1 - p_exit = 0.8, far above the ~0.2
    # stationary rate an i.i.d. model would give.
    assert consecutive / losses > 0.5


def test_gilbert_elliott_validates_probabilities():
    from repro.faults import GilbertElliottLoss

    with pytest.raises(ValueError):
        GilbertElliottLoss(p_enter=1.5, p_exit=0.1)
    with pytest.raises(ValueError):
        GilbertElliottLoss(p_enter=0.1, p_exit=-0.1)


def test_make_model_dispatch_and_roundtrip():
    from repro.faults import BernoulliLoss, GilbertElliottLoss, make_model

    ge = make_model({"model": "gilbert_elliott", "p_enter": 0.01, "p_exit": 0.3})
    assert isinstance(ge, GilbertElliottLoss)
    assert make_model(ge.to_params()).to_params() == ge.to_params()
    bern = make_model({"rate": 0.25})
    assert isinstance(bern, BernoulliLoss)
    assert bern.probability == 0.25
    with pytest.raises(ValueError):
        make_model({"model": "solar_flare"})


def test_injector_rejects_model_and_probability_together():
    from repro.faults import BernoulliLoss

    net = small_star()
    with pytest.raises(ValueError):
        FaultInjector(net.switches[0], 0.5, model=BernoulliLoss(0.5))
    with pytest.raises(ValueError):
        FaultInjector(net.switches[0])


# -- fault schedules ----------------------------------------------------------


def test_schedule_roundtrip_and_sorting(tmp_path):
    from repro.faults import FaultSchedule

    sched = FaultSchedule.from_spec({"events": [
        {"time_ns": 500, "kind": "link_down", "target": "tor0:1"},
        {"time_ns": 100, "kind": "corruption_on", "target": "tor0",
         "params": {"model": "bernoulli", "rate": 0.001}},
    ]})
    assert [e.time_ns for e in sched.events] == [100, 500]
    path = tmp_path / "spec.json"
    sched.dump(str(path))
    from repro.faults.schedule import FaultSchedule as FS

    assert FS.load(str(path)).to_spec() == sched.to_spec()


def test_schedule_rejects_bad_events():
    from repro.faults import FaultEvent

    with pytest.raises(ValueError):
        FaultEvent(0, "meteor_strike")
    with pytest.raises(ValueError):
        FaultEvent(-5, "link_down")


def test_controller_rejects_unknown_targets():
    from repro.faults import FaultSchedule

    # Resolved when the controller is built, before any event is armed.
    net = small_star()
    with pytest.raises(ValueError, match="'nosuch': no such device"):
        FaultSchedule.from_spec({"events": [
            {"time_ns": 10, "kind": "corruption_on", "target": "nosuch",
             "params": {"rate": 0.1}},
        ]}).install(net)
    assert not net.engine.pending

    net2 = small_star()
    with pytest.raises(ValueError, match="'tor0': expected 'device:port_no'"):
        FaultSchedule.from_spec({"events": [
            {"time_ns": 10, "kind": "link_down", "target": "tor0"},
        ]}).install(net2)
    assert not net2.engine.pending


def test_corruption_window_opens_and_closes():
    from repro.faults import FaultSchedule

    net = small_star()
    switch = net.switches[0]
    controller = FaultSchedule.from_spec({"events": [
        {"time_ns": 0, "kind": "corruption_on", "target": "tor0",
         "params": {"rate": 1.0}},
        {"time_ns": 200_000, "kind": "corruption_off", "target": "tor0"},
    ]}).install(net)
    _, _, record = run_flow(net, "tcp", size=20_000, until=60_000_000_000)
    # Total blackout while the window is open, full recovery after.
    assert record.completed
    assert net.stats.drops_fault > 0
    assert controller.injectors == {}  # window closed, injector detached
    assert switch.interceptors == ()


def _uplink(net, tor_name, spine_name):
    tor = net.device(tor_name)
    return next(
        p for p in tor.ports
        if p.peer is not None and p.peer.owner.name == spine_name
    )


def test_link_flap_reroutes_over_surviving_spine():
    """Two spines: cutting one ToR uplink mid-run must re-spread flows
    over the survivor (no blackout), then heal on link_up."""
    from repro.faults import FaultSchedule
    from repro.net.topology import leaf_spine

    net = leaf_spine(num_spines=2, num_tors=2, hosts_per_tor=2)
    port = _uplink(net, "tor0", "spine0")
    before = dict(net.device("tor0").fib._routes)
    controller = FaultSchedule.from_spec({"events": [
        {"time_ns": 50_000, "kind": "link_down",
         "target": f"tor0:{port.port_no}"},
        {"time_ns": 2_000_000, "kind": "link_up",
         "target": f"tor0:{port.port_no}"},
    ]}).install(net)
    # Cross-ToR flow spanning the flap window.
    _, _, record = run_flow(net, "tcp", size=500_000, src=0, dst=2,
                            until=60_000_000_000)
    assert record.completed
    assert net.stats.drops_green == 0  # reroute, not congestion loss
    survivor = _uplink(net, "tor0", "spine1")
    assert survivor.tx_packets > 0
    # FIB healed exactly: routes restored, blackholes gone.
    assert dict(net.device("tor0").fib._routes) == before
    assert controller.blackholes == {}
    assert not port.down and not port.peer.down


def test_link_down_without_alternate_path_blackholes_until_up():
    from repro.faults import FaultSchedule

    net = small_star()
    host_port = net.device("tor0").ports[1]  # tor0 -> host1 (dst side)
    FaultSchedule.from_spec({"events": [
        {"time_ns": 10_000, "kind": "link_down", "target": f"tor0:{host_port.port_no}"},
        {"time_ns": 3_000_000, "kind": "link_up", "target": f"tor0:{host_port.port_no}"},
    ]}).install(net)
    _, _, record = run_flow(net, "tcp", size=100_000, until=60_000_000_000)
    assert record.completed  # RTO carries the flow across the outage
    assert net.stats.drops_fault > 0
    assert net.stats.drops_green == 0


def test_switch_down_and_up():
    from repro.faults import FaultSchedule
    from repro.net.topology import leaf_spine

    net = leaf_spine(num_spines=2, num_tors=2, hosts_per_tor=2)
    controller = FaultSchedule.from_spec({"events": [
        {"time_ns": 50_000, "kind": "switch_down", "target": "spine0"},
        {"time_ns": 2_000_000, "kind": "switch_up", "target": "spine0"},
    ]}).install(net)
    _, _, record = run_flow(net, "tcp", size=500_000, src=0, dst=2,
                            until=60_000_000_000)
    assert record.completed
    assert controller.blackholes == {}
    spine = net.device("spine0")
    assert all(not p.down for p in spine.ports)
    assert spine.interceptors == ()


def test_pfc_storm_pauses_then_recovers():
    from repro.faults import FaultSchedule

    net = small_star()
    port = net.device("tor0").ports[1]  # egress toward the receiver
    FaultSchedule.from_spec({"events": [
        {"time_ns": 20_000, "kind": "pfc_storm", "target": "tor0:1",
         "params": {"duration_ns": 1_000_000}},
    ]}).install(net)
    _, _, record = run_flow(net, "tcp", size=200_000, until=60_000_000_000)
    assert record.completed
    assert net.stats.pause_frames > 0
    assert port.paused_ns >= 1_000_000  # the storm held the port down
    assert not port.paused  # and released it afterwards


def test_random_schedules_are_valid_and_reproducible():
    from repro.faults import FaultSchedule
    from repro.net.topology import leaf_spine

    net = leaf_spine(num_spines=2, num_tors=2, hosts_per_tor=2)
    specs = [
        FaultSchedule.random(random.Random(s), 2_000_000, net).to_spec()
        for s in range(6)
    ]
    assert specs[0] == FaultSchedule.random(
        random.Random(0), 2_000_000, net).to_spec()
    for spec in specs:
        assert spec["events"]
        for event in spec["events"]:
            assert event["time_ns"] <= 2_000_000


# -- property: faults never masquerade as congestion loss ---------------------


@pytest.mark.parametrize("chaos_seed", [0, 1, 2])
def test_any_random_schedule_keeps_green_congestion_drops_zero(chaos_seed):
    """Property check (§4): whatever faults a random schedule throws at
    an audited TLT run — corruption bursts, flaps, storms — the auditor
    stays silent and no green packet is ever *congestion*-dropped.
    Fault drops are accounted separately and may hit green packets."""
    from repro.experiments.scale import Scale
    from repro.experiments.scenarios import ScenarioConfig, build_network, run_scenario
    from repro.faults import FaultSchedule
    from repro.sim.rng import derive_seed

    scale = Scale("fault-prop", num_spines=2, num_tors=2, hosts_per_tor=2,
                  bg_flows=8, incast_events=1, incast_flows_per_sender=2)
    config = ScenarioConfig(transport="dctcp", tlt=True, scale=scale,
                            seed=chaos_seed + 1, audit=True)
    rng = random.Random(derive_seed(chaos_seed, "fault.chaos.test"))
    spec = FaultSchedule.random(rng, 2_000_000, build_network(config)).to_spec()

    from dataclasses import replace

    result = run_scenario(replace(config, faults=spec))  # AuditError would raise
    stats = result.stats
    assert result.faults is not None
    assert len(result.faults.applied) == len(spec["events"])
    assert stats.drops_green == 0
    assert stats.drops_fault == stats.drops_fault_green + stats.drops_fault_red
