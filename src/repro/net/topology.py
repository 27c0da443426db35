"""Topology builders: leaf–spine, fat-tree, single-switch star, dumbbell.

Every builder returns a :class:`Network` — the container for the
engine, stats collector, hosts and switches of one simulation run.

A builder checks its arguments and lists its switches and links; one
private builder (:func:`_build`) makes the devices and ports from those
lists and computes the routes: every switch routes each host over all
of its shortest-path (fewest-hop) next hops, in ascending port order —
ECMP wherever the fabric has equal-cost paths, one candidate elsewhere.

``leaf_spine`` and ``fat_tree`` take optional per-spine / per-core rate
factors to build *asymmetric* fabrics (one thin path among equals — the
regime where static-hash ECMP overloads the degraded link and weighted
or flowlet selection should win). Path weights are capacity-derived at
``Switch.finalize`` time, so asymmetric builders need no extra wiring.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.net.link import connect
from repro.net.node import Host
from repro.sim.backend import create_engine, optimize_network
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.sim.units import GBPS, MICROS
from repro.stats.collector import NetStats
from repro.switchsim.switch import Switch, SwitchConfig


@dataclass
class TopologyParams:
    """Shared knobs for the builders (paper defaults)."""

    link_rate_bps: int = 40 * GBPS
    link_delay_ns: int = 10 * MICROS  # 1 us for the RoCE experiments
    switch_config: SwitchConfig = field(default_factory=SwitchConfig)


class Network:
    """One simulation run's network: engine + stats + devices."""

    def __init__(self, engine: Engine, stats: NetStats, rng: RngRegistry):
        self.engine = engine
        self.stats = stats
        self.rng = rng
        self.hosts: List[Host] = []
        self.switches: List[Switch] = []
        self._next_flow_id = 1
        self.stamp()

    def stamp(self) -> None:
        """Start the clocks of the run manifest (construction; again by
        ``checkpoint.load``: a resumed run reports its own cost). The
        pre-run collection (``scenarios.collect``) fills in its own."""
        self.started = (time.perf_counter(), time.process_time(),
                        self.engine.events_processed)
        self.collect_s = 0.0
        self.collected = 0

    def new_flow_id(self) -> int:
        flow_id = self._next_flow_id
        self._next_flow_id += 1
        return flow_id

    def host(self, host_id: int) -> Host:
        return self.hosts[host_id]

    def device(self, name: str):
        """Look up any device (host or switch) by name."""
        for device in self.switches + self.hosts:
            if device.name == name:
                return device
        raise KeyError(f"no device named {name!r}")

    # -- aggregate statistics helpers ----------------------------------------

    def total_pause_frames(self) -> int:
        return self.stats.pause_frames

    def total_paused_ns(self) -> int:
        """Sum of time ports spent paused across all devices."""
        total = 0
        for device in list(self.switches) + list(self.hosts):
            for port in device.ports:
                total += port.paused_ns
                # Include a still-open pause interval.
                if port.paused:
                    total += self.engine.now - port._pause_started
        return total

    def avg_pause_fraction(self, duration_ns: int) -> float:
        """Average fraction of time a link was blocked by PAUSE."""
        ports = [p for d in list(self.switches) + list(self.hosts) for p in d.ports]
        if not ports or duration_ns <= 0:
            return 0.0
        return self.total_paused_ns() / (len(ports) * duration_ns)


#: One full-duplex link ``(a, b, rate_bps, delay_ns)``. An end is a host
#: id or a switch name; ``a``'s port is created before ``b``'s.
Link = Tuple[Union[int, str], Union[int, str], int, int]


def _build(params: TopologyParams, seed: int, num_hosts: int, switches: Sequence[str],
           links: Sequence[Link], finalize: Optional[Sequence[str]] = None) -> Network:
    """Build the network the lists describe on the active backend's engine.

    Hosts ``0..num_hosts-1`` and the ``switches`` (names, in switch-id
    order) come first, then one port per link end in link order: a
    port's construction rank sets its wire-sequence band
    (:class:`repro.net.link.Port`), so the order of ``links`` is part of
    every fingerprint. Routes follow (:func:`_install_routes`); the
    switches are finalized in ``finalize`` order (default: ``switches``)
    and the compiled kernels are bound last.
    """
    net = Network(create_engine(), NetStats(seed=seed), RngRegistry(seed))
    net.hosts.extend(Host(net.engine, host_id) for host_id in range(num_hosts))
    net.switches.extend(Switch(net.engine, switch_id, params.switch_config, net.stats, name=name)
                        for switch_id, name in enumerate(switches))
    by_name = {switch.name: switch for switch in net.switches}
    for a, b, rate_bps, delay_ns in links:
        connect(*[net.hosts[end].attach_port(rate_bps, delay_ns) if isinstance(end, int)
                  else by_name[end].add_port(rate_bps, delay_ns) for end in (a, b)])
    _install_routes(net.hosts, net.switches)
    for name in finalize or switches:
        by_name[name].finalize()
    optimize_network(net)
    return net


def _install_routes(hosts: Sequence[Host], switches: Sequence[Switch]) -> None:
    """Route every host at every switch over all of the switch's
    shortest-path next hops, ascending by port.

    A host hangs off one switch, so the next hops toward it are those
    toward that switch: one search per such switch, shared by its hosts.
    """
    fabric = {switch: [(port.port_no, port.peer.owner) for port in switch.ports
                       if isinstance(port.peer.owner, Switch)] for switch in switches}
    toward: Dict[Switch, Dict[Switch, Tuple[int, ...]]] = {}
    for host in hosts:
        edge_port = host.port.peer
        edge = edge_port.owner
        if edge not in toward:
            toward[edge] = _next_hops(edge, fabric)
        for switch in switches:
            ports = (edge_port.port_no,) if switch is edge else toward[edge][switch]
            switch.fib.add_route(host.host_id, ports)


def _next_hops(target: Switch, fabric: Dict[Switch, list]) -> Dict[Switch, Tuple[int, ...]]:
    """``{switch: ports}`` for every switch but ``target``: its ports onto
    a neighbour one hop nearer ``target`` (``fabric``: every switch's
    ``(port, neighbour switch)`` pairs), ascending."""
    distance = {target: 0}
    frontier = [target]
    while frontier:
        reached = []
        for switch in frontier:
            for _, peer in fabric[switch]:
                if peer not in distance:
                    distance[peer] = distance[switch] + 1
                    reached.append(peer)
        frontier = reached
    return {switch: tuple(port_no for port_no, peer in links
                          if distance[peer] == distance[switch] - 1)
            for switch, links in fabric.items() if switch is not target}


def _plane_rates(rate_bps: int, factors: Optional[Sequence[float]], count: int,
                 what: str) -> List[int]:
    """The link rate through each of ``count`` spines or cores: ``rate_bps``
    scaled by that plane's factor in ``(0, 1]`` (``None``: unscaled)."""
    if factors is None:
        return [rate_bps] * count
    if len(factors) != count:
        raise ValueError(f"{what}_rate_factors needs {count} entries, got {len(factors)}")
    for factor in map(float, factors):
        if not 0.0 < factor <= 1.0:
            raise ValueError(f"{what} rate factor must be in (0, 1], got {factor}")
    return [max(1, int(rate_bps * float(factor))) for factor in factors]


def leaf_spine(
    num_spines: int = 2,
    num_tors: int = 4,
    hosts_per_tor: int = 4,
    params: Optional[TopologyParams] = None,
    seed: int = 1,
    spine_rate_factors: Optional[Sequence[float]] = None,
) -> Network:
    """Build a two-tier leaf–spine fabric.

    The paper's simulation uses 4 spines x 12 ToRs x 8 hosts (96 hosts,
    2:1 oversubscription); the defaults here are a scaled-down version
    with the same per-link rates and delays. ToR ``t`` serves hosts
    ``t*hosts_per_tor..`` on ports ``0..hosts_per_tor-1`` and reaches
    spine ``s`` on port ``hosts_per_tor + s``; spine ports are per ToR.

    ``spine_rate_factors`` (one entry per spine, each in ``(0, 1]``)
    scales every ToR<->spine link through that spine — an asymmetric
    fabric where one spine plane runs thin.
    """
    params = params or TopologyParams()
    rate, delay = params.link_rate_bps, params.link_delay_ns
    uplink_rates = _plane_rates(rate, spine_rate_factors, num_spines, "spine")
    tors = [f"tor{t}" for t in range(num_tors)]
    spines = [f"spine{s}" for s in range(num_spines)]
    num_hosts = num_tors * hosts_per_tor
    links = [(host, tors[host // hosts_per_tor], rate, delay) for host in range(num_hosts)]
    links += [(tor, spine, uplink_rate, delay)
              for tor in tors for spine, uplink_rate in zip(spines, uplink_rates)]
    return _build(params, seed, num_hosts, tors + spines, links)


def fat_tree(
    k: int = 4,
    params: Optional[TopologyParams] = None,
    seed: int = 1,
    core_rate_factors: Optional[Sequence[float]] = None,
) -> Network:
    """Build a three-tier k-ary fat-tree (Clos): ``k`` pods of ``k/2``
    edge and ``k/2`` aggregation switches, ``(k/2)^2`` cores, and
    ``k^3/4`` hosts — full bisection bandwidth at equal link rates.

    Wiring (``half = k/2``):

    - edge ``e`` of pod ``p`` serves hosts
      ``p*half^2 + e*half .. + half-1`` on ports ``0..half-1`` and
      uplinks to every agg of its pod on ports ``half..k-1``;
    - agg ``a`` of pod ``p`` reaches its pod's edges on ports
      ``0..half-1`` and cores ``a*half..(a+1)*half-1`` on ports
      ``half..k-1``;
    - core ``c`` connects to agg ``c // half`` of every pod, one port
      per pod.

    Multipath is everywhere: an inter-pod flow sees ``half`` candidate
    aggs at its edge and ``half`` candidate cores at its agg; a route
    down the tree has one. Switches are finalized pod by pod (edges,
    then aggs), cores last.

    ``core_rate_factors`` (one entry per core, each in ``(0, 1]``)
    scales every agg<->core link of that core — the classic asymmetric
    Clos where one core plane is degraded.
    """
    if k < 2 or k % 2:
        raise ValueError(f"fat-tree k must be even and >= 2, got {k}")
    half = k // 2
    params = params or TopologyParams()
    rate, delay = params.link_rate_bps, params.link_delay_ns
    core_rates = _plane_rates(rate, core_rate_factors, half * half, "core")
    edges = [[f"edge{p}_{e}" for e in range(half)] for p in range(k)]
    aggs = [[f"agg{p}_{a}" for a in range(half)] for p in range(k)]
    cores = [f"core{c}" for c in range(half * half)]
    all_edges = sum(edges, [])
    num_hosts = k * half * half
    links = [(host, all_edges[host // half], rate, delay) for host in range(num_hosts)]
    links += [(edge, agg, rate, delay) for p in range(k) for agg in aggs[p] for edge in edges[p]]
    links += [(aggs[p][c // half], core, core_rates[c], delay)
              for c, core in enumerate(cores) for p in range(k)]
    pod_major = [name for p in range(k) for name in edges[p] + aggs[p]] + cores
    return _build(params, seed, num_hosts, all_edges + sum(aggs, []) + cores, links, pod_major)


def star(
    num_hosts: int = 9,
    params: Optional[TopologyParams] = None,
    seed: int = 1,
) -> Network:
    """All hosts on one switch — the testbed microbenchmark topology."""
    params = params or TopologyParams()
    links = [(host, "tor0", params.link_rate_bps, params.link_delay_ns)
             for host in range(num_hosts)]
    return _build(params, seed, num_hosts, ["tor0"], links)


def dumbbell(
    left_hosts: int = 7,
    right_hosts: int = 2,
    params: Optional[TopologyParams] = None,
    seed: int = 1,
) -> Network:
    """Two switches joined by one inter-switch link (testbed §7.4)."""
    params = params or TopologyParams()
    rate, delay = params.link_rate_bps, params.link_delay_ns
    num_hosts = left_hosts + right_hosts
    links = [(host, "swL" if host < left_hosts else "swR", rate, delay)
             for host in range(num_hosts)]
    links.append(("swL", "swR", rate, delay))  # the trunk
    return _build(params, seed, num_hosts, ["swL", "swR"], links)
