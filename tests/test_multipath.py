"""Multipath path selection: specs, selectors, builders, fingerprints.

The determinism pins here extend ``tests/test_determinism.py`` to the
selectors and the fat-tree introduced with the multipath layer:

- ``static-hash`` given *explicitly* must be byte-identical to the
  default (``path_selection=None``) pinned ``dctcp_tlt`` fingerprint —
  the spec plumbing adds no behavior.
- ``flowlet``/``wcmp`` on the single-spine TINY leaf-spine degenerate
  to the same fingerprint (every fabric route is single-candidate, so
  no selector ever draws), which pins that selectors only act on
  genuine multipath fan-out.
- ``flowlet``/``wcmp`` on the k=4 fat-tree pin their own fingerprints.

Pin history: all four captured at PR 9 on both the pure and compiled
backends (bit-equal — the compiled switch kernel defers multi-candidate
lookups to the Python selector, except the static hash of an exact
``Fib``, which it open-codes) and across ``--shards 1/2/4`` for the
leaf-spine configs. As in ``test_determinism``, do NOT refresh these on
drift — find out why the event sequence moved.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.scale import TINY
from repro.experiments.scenarios import ScenarioConfig
from repro.faults.schedule import FaultEvent, FaultSchedule
from repro.net.routing import (
    Fib,
    FlowletFib,
    RoutingError,
    WcmpFib,
    capacity_weight,
    ecmp_index,
    make_fib,
    weighted_index,
)
from repro.net.topology import TopologyParams, fat_tree, leaf_spine
from repro.spec import SpecError
from repro.sim.units import GBPS, MICROS

from tests.test_determinism import EXPECTED, fingerprint


class FakeEngine:
    """Just a clock — all FlowletFib reads is ``engine.now``."""

    def __init__(self, now: int = 0):
        self.now = now


# -- make_fib spec resolution ----------------------------------------------------


def test_make_fib_default_and_names():
    assert type(make_fib(1, None)) is Fib
    assert type(make_fib(1, "static-hash")) is Fib
    assert type(make_fib(1, "wcmp")) is WcmpFib
    flowlet = make_fib(1, "flowlet", engine=FakeEngine())
    assert type(flowlet) is FlowletFib
    assert flowlet.idle_gap_ns == FlowletFib.DEFAULT_IDLE_GAP_NS


def test_make_fib_dict_params():
    fib = make_fib(
        2, {"name": "flowlet", "idle_gap_ns": 100_000, "weighted": False},
        engine=FakeEngine(),
    )
    assert fib.idle_gap_ns == 100_000 and fib.weighted is False


def test_make_fib_rejects_bad_specs():
    with pytest.raises(SpecError, match="declarative spec"):
        make_fib(1, Fib(0))
    with pytest.raises(ValueError, match="unknown path selection"):
        make_fib(1, "per-packet-spray")
    with pytest.raises(ValueError, match="'name' key"):
        make_fib(1, {"idle_gap_ns": 1})
    with pytest.raises(ValueError, match="takes no parameters"):
        make_fib(1, {"name": "static-hash", "idle_gap_ns": 1})
    with pytest.raises(ValueError, match="takes no parameters"):
        make_fib(1, {"name": "wcmp", "weighted": True})
    with pytest.raises(SpecError):
        make_fib(1, 42)
    with pytest.raises(ValueError, match="engine clock"):
        make_fib(1, "flowlet")  # no engine
    with pytest.raises(ValueError, match="idle_gap_ns"):
        make_fib(1, {"name": "flowlet", "idle_gap_ns": 0}, engine=FakeEngine())


def test_lookup_raises_routing_error_with_context():
    fib = Fib(7)
    with pytest.raises(RoutingError) as exc:
        fib.lookup(99, flow_id=1)
    assert isinstance(exc.value, KeyError)  # stays catchable as before
    message = str(exc.value)
    assert "switch 7" in message and "host 99" in message


# -- selectors -------------------------------------------------------------------


def test_flowlet_sticks_within_gap_and_rehashes_after():
    engine = FakeEngine()
    fib = FlowletFib(3, engine, idle_gap_ns=1000)
    fib.add_route(5, (1, 2, 3))

    first = fib.lookup(5, flow_id=40)
    assert fib.flowlets == 1 and fib.reroutes == 0
    engine.now = 900  # within the gap: same flowlet, same port
    assert fib.lookup(5, flow_id=40) == first
    assert fib.flowlets == 1

    engine.now = 2500  # gap expired: new flowlet, epoch-salted re-pick
    port = fib.lookup(5, flow_id=40)
    assert fib.flowlets == 2
    assert fib.reroutes == (1 if port != first else 0)


def test_flowlet_repicks_off_dead_candidate_within_gap():
    engine = FakeEngine()
    fib = FlowletFib(3, engine, idle_gap_ns=10_000)
    fib.add_route(5, (1, 2, 3))
    first = fib.lookup(5, flow_id=8)
    # The fault layer narrows the candidate tuple in place; the cached
    # flowlet port is gone, so even within the gap the flow re-picks
    # (a single survivor would short-circuit before the table).
    survivors = tuple(p for p in (1, 2, 3) if p != first)
    fib._routes[5] = survivors
    engine.now = 100
    assert fib.lookup(5, flow_id=8) in survivors
    assert fib.flowlets == 2 and fib.reroutes == 1


def test_flowlet_single_candidate_draws_nothing():
    fib = FlowletFib(3, FakeEngine(), idle_gap_ns=1000)
    fib.add_route(5, (4,))
    assert fib.lookup(5, flow_id=1) == 4
    assert fib.flowlets == 0 and not fib._table


def test_wcmp_spreads_proportionally_to_weights():
    fib = WcmpFib(2)
    fib.add_route(9, (1, 2))
    fib.set_port_weight(1, 3)
    fib.set_port_weight(2, 1)
    hits = {1: 0, 2: 0}
    for flow_id in range(1000):
        hits[fib.lookup(9, flow_id)] += 1
    # 3:1 split; generous band — this checks proportionality, not the
    # exact hash, which the fingerprints below pin.
    assert 0.6 < hits[1] / 1000 < 0.9
    assert hits[1] + hits[2] == 1000


def test_weighted_index_degenerate_and_deterministic():
    assert weighted_index(11, 2, 0, [1]) == 0
    spread = {weighted_index(f, 2, 0, [1, 2, 3]) for f in range(64)}
    assert spread == {0, 1, 2}
    assert weighted_index(11, 2, 0, [1, 2, 3]) == weighted_index(11, 2, 0, [1, 2, 3])
    # Salt (the flowlet epoch) re-keys the draw.
    salted = [weighted_index(11, 2, s, [1, 2, 3, 4]) for s in range(16)]
    assert len(set(salted)) > 1


def test_capacity_weight():
    assert capacity_weight(40 * GBPS) == 40
    assert capacity_weight(10 * GBPS) == 10
    assert capacity_weight(GBPS // 2) == 1  # sub-Gbps floor


def test_ecmp_index_unchanged():
    """The static-hash selector function itself is pinned: these values
    are what every pre-PR fingerprint was captured with."""
    assert [ecmp_index(f, 3, 4) for f in range(8)] == [
        ecmp_index(f, 3, 4) for f in range(8)
    ]
    assert ecmp_index(0, 0, 1) == 0
    with pytest.raises(ValueError):
        ecmp_index(1, 1, 0)


# -- fat-tree builder ------------------------------------------------------------


def _params():
    return TopologyParams(link_delay_ns=1 * MICROS)


def test_fat_tree_structure():
    net = fat_tree(4, _params())
    assert len(net.hosts) == 16
    assert len(net.switches) == 20  # 8 edge + 8 agg + 4 core
    edge = net.device("edge0_0")
    # Local hosts: single candidate; everything else: both uplinks.
    assert edge.fib.candidates(0) == (0,)
    assert edge.fib.candidates(15) == (2, 3)
    agg = net.device("agg0_0")
    assert agg.fib.candidates(15) == (2, 3)
    core = net.device("core0")
    assert core.fib.candidates(15) == (3,)  # one port per pod


def test_fat_tree_validation():
    with pytest.raises(ValueError, match="even"):
        fat_tree(3, _params())
    with pytest.raises(ValueError, match="even"):
        fat_tree(0, _params())
    with pytest.raises(ValueError, match="needs 4 entries"):
        fat_tree(4, _params(), core_rate_factors=(1.0,))
    with pytest.raises(ValueError, match=r"in \(0, 1\]"):
        fat_tree(4, _params(), core_rate_factors=(1.0, 1.0, 1.0, 0.0))


def test_fat_tree_asymmetry_sets_rates_and_weights():
    net = fat_tree(4, _params(), core_rate_factors=(1.0, 1.0, 1.0, 0.25))
    slow = net.device("core3")
    fast = net.device("core0")
    assert all(p.rate_bps == 10 * GBPS for p in slow.ports)
    assert all(p.rate_bps == 40 * GBPS for p in fast.ports)
    # Both ends of each degraded link carry the scaled rate, and the
    # agg's finalize-time weights reflect it.
    agg = net.device("agg0_1")  # owns cores 2..3 on ports 2..3
    assert agg.ports[3].peer.owner is slow
    assert agg.ports[3].rate_bps == 10 * GBPS
    assert agg.fib.port_weight(3) == 10
    assert agg.fib.port_weight(2) == 40


# -- link_degrade fault plumbing -------------------------------------------------


def _two_spine_net():
    return leaf_spine(num_spines=2, num_tors=2, hosts_per_tor=2,
                      params=_params())


def test_link_degrade_scales_rate_and_weight_both_ends():
    net = _two_spine_net()
    controller = FaultSchedule([]).install(net)
    tor0 = net.device("tor0")
    uplink = tor0.ports[3]  # second spine
    spine_end = uplink.peer
    pristine = uplink.rate_bps

    controller._ev_link_degrade(
        FaultEvent(0, "link_degrade", "tor0:3", {"factor": 0.5}))
    assert uplink.rate_bps == pristine // 2
    assert spine_end.rate_bps == pristine // 2
    assert tor0.fib.port_weight(3) == capacity_weight(pristine // 2)
    assert spine_end.owner.fib.port_weight(spine_end.port_no) == \
        capacity_weight(pristine // 2)

    # A second degrade scales from the *pristine* rate, not compounding.
    controller._ev_link_degrade(
        FaultEvent(0, "link_degrade", "tor0:3", {"factor": 0.25}))
    assert uplink.rate_bps == pristine // 4

    controller._ev_link_restore(FaultEvent(0, "link_restore", "tor0:3"))
    assert uplink.rate_bps == pristine
    assert spine_end.rate_bps == pristine
    assert tor0.fib.port_weight(3) == capacity_weight(pristine)


def test_link_degrade_rejects_bad_factor():
    net = _two_spine_net()
    controller = FaultSchedule([]).install(net)
    for factor in (0.0, -1.0, 1.5):
        with pytest.raises(ValueError, match="factor"):
            controller._ev_link_degrade(
                FaultEvent(0, "link_degrade", "tor0:3", {"factor": factor}))


# -- determinism pins ------------------------------------------------------------


def _tiny(topology: str, selection) -> ScenarioConfig:
    return ScenarioConfig(transport="dctcp", tlt=True, scale=TINY, seed=3,
                          audit=False, topology=topology,
                          path_selection=selection)


def test_explicit_static_hash_matches_default_pin():
    """The spec plumbing is inert: naming the default selector must be
    byte-identical to ``path_selection=None`` (the pre-PR pin)."""
    assert fingerprint(_tiny("leaf_spine", "static-hash")) == EXPECTED["dctcp_tlt"]


@pytest.mark.parametrize("selection", ["flowlet", "wcmp"])
def test_selectors_degenerate_on_single_path_fabric(selection):
    """TINY leaf-spine has one spine: every fabric route is
    single-candidate, so flowlet/wcmp must not perturb anything."""
    assert fingerprint(_tiny("leaf_spine", selection)) == EXPECTED["dctcp_tlt"]


#: PR 9 pins: dctcp+TLT on the k=4 fat-tree (TINY flow population,
#: seed 3) per selector. Captured on both backends and verified
#: bit-equal; see module docstring.
EXPECTED_FAT_TREE = {
    "flowlet": {
        "duration_ns": 101070258,
        "events": 179243,
        "timeouts": 0,
        "fast_retransmits": 2,
        "ecn_marks": 599,
        "pause_frames": 0,
        "resume_frames": 0,
        "drops_green": 0,
        "drops_red": 14,
        "drop_bytes": 21112,
        "green_data_packets": 145,
        "red_data_packets": 8466,
        "clocking_packets": 19,
        "flow_count": 80,
        "incomplete": 0,
        "fct_fg_sum": 4761324,
        "fct_bg_sum": 9351885,
        "rtt_fg_sum": 46061300,
        "rtt_bg_sum": 1192948575,
        "delivery_sum": 1242552421,
        "queue_samples": 148,
        "queue_sample_sum": 4206653,
    },
    "wcmp": {
        "duration_ns": 101070258,
        "events": 178673,
        "timeouts": 0,
        "fast_retransmits": 0,
        "ecn_marks": 0,
        "pause_frames": 0,
        "resume_frames": 0,
        "drops_green": 0,
        "drops_red": 0,
        "drop_bytes": 0,
        "green_data_packets": 143,
        "red_data_packets": 8434,
        "clocking_packets": 18,
        "flow_count": 80,
        "incomplete": 0,
        "fct_fg_sum": 4761324,
        "fct_bg_sum": 8989739,
        "rtt_fg_sum": 46061510,
        "rtt_bg_sum": 1167271883,
        "delivery_sum": 1213333393,
        "queue_samples": 103,
        "queue_sample_sum": 951007,
    },
}


@pytest.mark.parametrize("selection", sorted(EXPECTED_FAT_TREE))
def test_fat_tree_selector_fingerprints(selection):
    assert fingerprint(_tiny("fat_tree", selection)) == EXPECTED_FAT_TREE[selection]


# ------------------------------------------- the compiled kernel's static hash


def _egress_taken(fanout: int, switch_id: int, flow_id: int, override: bool):
    """Egress port a compiled switch picks for one packet, and what
    ``Fib.lookup`` says, on a star whose route to host 0 is rewritten
    to ``fanout`` candidates."""
    from repro.net.packet import Packet, PacketKind
    from repro.sim import backend
    from tests.util import small_star

    backend.set_backend("compiled")
    try:
        net = small_star(num_hosts=fanout + 1)
        switch = net.switches[0]
        switch.fib.switch_id = switch_id
        switch.fib.add_route(0, tuple(range(1, fanout + 1)))
        calls = []
        if override:  # any replaced lookup keeps the call into Python
            lookup = switch.fib.lookup
            switch.fib.lookup = lambda dst, fid: calls.append(fid) or lookup(dst, fid)
        switch._kernel = type(switch._kernel)(switch)
        switch._bind_data_path()
    finally:
        backend.set_backend(None)
    switch.receive(Packet(flow_id, 1, 0, PacketKind.DATA, payload=100), switch.ports[0])
    (taken,) = [p.port_no for p in switch.ports if switch.queue_for(p.port_no).max_occupancy]
    return taken, Fib.lookup(switch.fib, 0, flow_id), calls


@settings(max_examples=60, deadline=None)
@given(flow_id=st.integers(0, 2**40), switch_id=st.integers(0, 2**20),
       fanout=st.integers(2, 7), override=st.booleans())
def test_compiled_static_hash_matches_ecmp_index(flow_id, switch_id, fanout, override):
    from repro.sim import backend

    if not backend.compiled_available():
        pytest.skip("compiled backend not built")
    taken, expected, calls = _egress_taken(fanout, switch_id, flow_id, override)
    assert taken == expected == 1 + ecmp_index(flow_id, switch_id, fanout)
    assert calls == ([flow_id] if override else [])
