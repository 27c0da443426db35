"""Tests for topologies and ECMP routing."""

import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.scale import SMALL
from repro.net.node import Host
from repro.net.packet import Packet, PacketKind
from repro.net.routing import Fib, ecmp_index
from repro.net.topology import TopologyParams, dumbbell, fat_tree, leaf_spine, star
from repro.switchsim.switch import SwitchConfig


def test_leaf_spine_shape():
    net = leaf_spine(num_spines=2, num_tors=4, hosts_per_tor=4)
    assert len(net.hosts) == 16
    assert len(net.switches) == 6  # 4 ToRs + 2 spines
    tor = net.switches[0]
    assert len(tor.ports) == 4 + 2  # hosts + uplinks
    spine = net.switches[4]
    assert len(spine.ports) == 4  # one per ToR


def test_all_pairs_reachable_in_leaf_spine():
    net = leaf_spine(num_spines=2, num_tors=3, hosts_per_tor=2)
    received = []

    class Sink:
        def on_packet(self, p):
            received.append(p)

    sink = Sink()
    flow = 1
    for src in net.hosts:
        for dst in net.hosts:
            if src is dst:
                continue
            dst.register_endpoint(flow, sink)
            src.send(Packet(flow, src.host_id, dst.host_id, PacketKind.DATA, payload=100))
            flow += 1
    net.engine.run()
    assert len(received) == 6 * 5


def test_ecmp_is_deterministic_per_flow():
    fib = Fib(switch_id=3)
    fib.add_route(7, [0, 1, 2, 3])
    first = fib.lookup(7, flow_id=42)
    assert all(fib.lookup(7, flow_id=42) == first for _ in range(100))


def test_ecmp_spreads_flows():
    fib = Fib(switch_id=3)
    fib.add_route(7, [0, 1, 2, 3])
    chosen = {fib.lookup(7, flow_id=f) for f in range(200)}
    assert chosen == {0, 1, 2, 3}


def test_ecmp_differs_between_switches():
    picks_a = [ecmp_index(f, 1, 4) for f in range(100)]
    picks_b = [ecmp_index(f, 2, 4) for f in range(100)]
    assert picks_a != picks_b


def test_ecmp_validates_fanout():
    with pytest.raises(ValueError):
        ecmp_index(1, 1, 0)


def test_fib_requires_ports():
    fib = Fib(0)
    with pytest.raises(ValueError):
        fib.add_route(1, [])


def test_star_all_hosts_on_one_switch():
    net = star(num_hosts=5)
    assert len(net.switches) == 1
    assert len(net.switches[0].ports) == 5


def test_dumbbell_cross_traffic_uses_trunk():
    net = dumbbell(left_hosts=3, right_hosts=2)
    received = []

    class Sink:
        def on_packet(self, p):
            received.append(p)

    net.host(4).register_endpoint(1, Sink())
    net.host(0).send(Packet(1, 0, 4, PacketKind.DATA, payload=100))
    net.engine.run()
    assert len(received) == 1
    trunk_port = net.switches[0].ports[3]  # after 3 host ports
    assert trunk_port.tx_packets == 1


def test_flow_id_allocation_unique():
    net = star(num_hosts=2)
    ids = {net.new_flow_id() for _ in range(100)}
    assert len(ids) == 100


def test_per_switch_buffer_and_config_shared():
    cfg = SwitchConfig(buffer_bytes=123_456)
    net = leaf_spine(params=TopologyParams(switch_config=cfg))
    assert all(s.buffer.capacity == 123_456 for s in net.switches)
    # Buffers are per-switch instances, not shared.
    net.switches[0].buffer.reserve(100)
    assert net.switches[1].buffer.used == 0


# -- computed routes ---------------------------------------------------------------


def route_table(net) -> dict:
    """``{switch: {host: candidates}}`` in FIB insertion order."""
    return {switch.name: {str(host): list(ports) for host, ports in switch.fib._routes.items()}
            for switch in net.switches}


#: sha256 of each builder's :func:`route_table` (JSON). ECMP picks a
#: candidate by its index, so candidate order is part of every
#: fingerprint: the pins hold it, and the FIB insertion order, fixed.
ROUTE_PINS = {
    "leaf_spine_small": (
        lambda: leaf_spine(SMALL.num_spines, SMALL.num_tors, SMALL.hosts_per_tor),
        "f17de46d1f54daaa6bb7b8de2c3c4198dc2c776d4ab876d53fbd19a1d961fe0b"),
    "leaf_spine_4x12x8": (
        lambda: leaf_spine(4, 12, 8),
        "f375ad0813b8c0f0617fc6d4128249e5f40953fb1d032c9632a338f84089bf1e"),
    "fat_tree_k4": (
        lambda: fat_tree(4),
        "9af09b61abb0ea96066dcc381e19c97710ea5582bc3d6ddd01aac920c8457ff7"),
    "fat_tree_k4_thin_core": (
        lambda: fat_tree(4, core_rate_factors=(1.0, 0.25, 1.0, 1.0)),
        "9af09b61abb0ea96066dcc381e19c97710ea5582bc3d6ddd01aac920c8457ff7"),
    "star_9": (
        lambda: star(9),
        "324cfcb9b98ba0d0bc9c3ac25c816d856bffd9b2514c020582c07fab27c3d2f7"),
    "dumbbell_7_2": (
        lambda: dumbbell(7, 2),
        "61ee29a6dc3b98a8ba7ab405fe71a56539be88e493800d96b593b946fe3a07e8"),
}


@pytest.mark.parametrize("name", sorted(ROUTE_PINS))
def test_route_tables_are_pinned(name):
    build, pin = ROUTE_PINS[name]
    assert hashlib.sha256(json.dumps(route_table(build())).encode()).hexdigest() == pin


def _shortest_next_hops(switch, host) -> tuple:
    """Reference: the ports of ``switch`` one hop nearer ``host``, by a
    breadth-first search from the host over every device (a host other
    than the destination is never a transit)."""
    distance = {host: 0}
    frontier = [host]
    while frontier:
        reached = []
        for device in frontier:
            if isinstance(device, Host) and device is not host:
                continue
            for port in device.ports:
                peer = port.peer.owner
                if peer not in distance:
                    distance[peer] = distance[device] + 1
                    reached.append(peer)
        frontier = reached
    return tuple(sorted(port.port_no for port in switch.ports
                        if distance.get(port.peer.owner) == distance[switch] - 1))


BUILDS = st.one_of(
    st.builds(leaf_spine, st.integers(1, 4), st.integers(1, 5), st.integers(1, 4)),
    st.builds(fat_tree, st.sampled_from([2, 4, 6])),
    st.builds(star, st.integers(1, 10)),
    st.builds(dumbbell, st.integers(1, 6), st.integers(1, 6)),
)


@settings(max_examples=60, deadline=None)
@given(net=BUILDS)
def test_every_route_is_the_ascending_set_of_shortest_path_next_hops(net):
    for switch in net.switches:
        assert list(switch.fib._routes) == [host.host_id for host in net.hosts]
        for host in net.hosts:
            assert switch.fib.candidates(host.host_id) == _shortest_next_hops(switch, host)
