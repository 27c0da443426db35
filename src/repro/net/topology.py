"""Topology builders: leaf–spine, fat-tree, single-switch star, dumbbell.

Every builder returns a :class:`Network` — the container for the
engine, stats collector, hosts and switches of one simulation run.

``leaf_spine`` and ``fat_tree`` take optional per-spine / per-core rate
factors to build *asymmetric* fabrics (one thin path among equals — the
regime where static-hash ECMP overloads the degraded link and weighted
or flowlet selection should win). Path weights are capacity-derived at
``Switch.finalize`` time, so asymmetric builders need no extra wiring.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

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
    host_link_delay_ns: int = 10 * MICROS  # 1 us for the RoCE experiments
    fabric_link_delay_ns: int = 10 * MICROS
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
        for device in self.switches:
            if device.name == name:
                return device
        for device in self.hosts:
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


def _new_network(seed: int) -> Network:
    """Fresh network on whatever engine the active backend provides
    (:mod:`repro.sim.backend`); pure :class:`Engine` by default."""
    return Network(create_engine(), NetStats(seed=seed), RngRegistry(seed))


def _rate_factor(factors: Optional[Sequence[float]], index: int, what: str) -> float:
    if factors is None:
        return 1.0
    factor = float(factors[index])
    if not 0.0 < factor <= 1.0:
        raise ValueError(f"{what} rate factor must be in (0, 1], got {factor}")
    return factor


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
    with the same per-link rates and delays.

    ``spine_rate_factors`` (one entry per spine, each in ``(0, 1]``)
    scales every ToR<->spine link through that spine — an asymmetric
    fabric where one spine plane runs thin.
    """
    params = params or TopologyParams()
    if spine_rate_factors is not None and len(spine_rate_factors) != num_spines:
        raise ValueError(
            f"spine_rate_factors needs {num_spines} entries, "
            f"got {len(spine_rate_factors)}"
        )
    net = _new_network(seed)
    engine = net.engine

    for tor_idx in range(num_tors):
        for local in range(hosts_per_tor):
            host = Host(engine, tor_idx * hosts_per_tor + local)
            net.hosts.append(host)

    tors = []
    for tor_idx in range(num_tors):
        tor = Switch(engine, tor_idx, params.switch_config, net.stats, name=f"tor{tor_idx}")
        tors.append(tor)
        net.switches.append(tor)
    spines = []
    for spine_idx in range(num_spines):
        spine = Switch(
            engine,
            num_tors + spine_idx,
            params.switch_config,
            net.stats,
            name=f"spine{spine_idx}",
        )
        spines.append(spine)
        net.switches.append(spine)

    # Host <-> ToR links.
    for tor_idx, tor in enumerate(tors):
        for local in range(hosts_per_tor):
            host = net.hosts[tor_idx * hosts_per_tor + local]
            hport = host.attach_port(params.link_rate_bps, params.host_link_delay_ns)
            tport = tor.add_port(params.link_rate_bps, params.host_link_delay_ns)
            connect(hport, tport)

    # ToR <-> spine links (full bipartite mesh).
    for tor in tors:
        for spine_idx, spine in enumerate(spines):
            factor = _rate_factor(spine_rate_factors, spine_idx, "spine")
            rate = max(1, int(params.link_rate_bps * factor))
            tport = tor.add_port(rate, params.fabric_link_delay_ns)
            sport = spine.add_port(rate, params.fabric_link_delay_ns)
            connect(tport, sport)

    # FIBs.
    for tor_idx, tor in enumerate(tors):
        uplinks = list(range(hosts_per_tor, hosts_per_tor + num_spines))
        for host in net.hosts:
            if host.host_id // hosts_per_tor == tor_idx:
                tor.fib.add_route(host.host_id, [host.host_id % hosts_per_tor])
            else:
                tor.fib.add_route(host.host_id, uplinks)
        tor.finalize()
    for spine in spines:
        for host in net.hosts:
            spine.fib.add_route(host.host_id, [host.host_id // hosts_per_tor])
        spine.finalize()

    optimize_network(net)
    return net


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
    aggs at its edge and ``half`` candidate cores at its agg. The FIBs
    encode exactly that: local routes are single-candidate, everything
    else fans over all uplinks.

    ``core_rate_factors`` (one entry per core, each in ``(0, 1]``)
    scales every agg<->core link of that core — the classic asymmetric
    Clos where one core plane is degraded.
    """
    if k < 2 or k % 2:
        raise ValueError(f"fat-tree k must be even and >= 2, got {k}")
    half = k // 2
    num_cores = half * half
    if core_rate_factors is not None and len(core_rate_factors) != num_cores:
        raise ValueError(
            f"core_rate_factors needs {num_cores} entries, "
            f"got {len(core_rate_factors)}"
        )
    params = params or TopologyParams()
    net = _new_network(seed)
    engine = net.engine

    for host_id in range(k * half * half):
        net.hosts.append(Host(engine, host_id))

    def new_switch(name: str) -> Switch:
        switch = Switch(
            engine, len(net.switches), params.switch_config, net.stats, name=name
        )
        net.switches.append(switch)
        return switch

    edges = [[new_switch(f"edge{p}_{e}") for e in range(half)] for p in range(k)]
    aggs = [[new_switch(f"agg{p}_{a}") for a in range(half)] for p in range(k)]
    cores = [new_switch(f"core{c}") for c in range(num_cores)]

    # Host <-> edge links (ports 0..half-1 on the edge switch).
    for p in range(k):
        for e, edge in enumerate(edges[p]):
            for h in range(half):
                host = net.hosts[p * half * half + e * half + h]
                hport = host.attach_port(params.link_rate_bps, params.host_link_delay_ns)
                eport = edge.add_port(params.link_rate_bps, params.host_link_delay_ns)
                connect(hport, eport)

    # Edge <-> agg links (full bipartite within the pod; edge ports
    # half..k-1, agg ports 0..half-1 indexed by edge).
    for p in range(k):
        for a, agg in enumerate(aggs[p]):
            for edge in edges[p]:
                eport = edge.add_port(params.link_rate_bps, params.fabric_link_delay_ns)
                aport = agg.add_port(params.link_rate_bps, params.fabric_link_delay_ns)
                connect(eport, aport)

    # Agg <-> core links: agg ``a`` owns cores a*half..(a+1)*half-1;
    # core ports are indexed by pod.
    for c, core in enumerate(cores):
        a = c // half
        factor = _rate_factor(core_rate_factors, c, "core")
        rate = max(1, int(params.link_rate_bps * factor))
        for p in range(k):
            aport = aggs[p][a].add_port(rate, params.fabric_link_delay_ns)
            cport = core.add_port(rate, params.fabric_link_delay_ns)
            connect(aport, cport)

    # FIBs.
    uplinks = list(range(half, k))
    for p in range(k):
        for e, edge in enumerate(edges[p]):
            first_local = p * half * half + e * half
            for host in net.hosts:
                if first_local <= host.host_id < first_local + half:
                    edge.fib.add_route(host.host_id, [host.host_id - first_local])
                else:
                    edge.fib.add_route(host.host_id, uplinks)
            edge.finalize()
        for agg in aggs[p]:
            for host in net.hosts:
                if host.host_id // (half * half) == p:
                    # Down to the edge that owns the host.
                    agg.fib.add_route(
                        host.host_id, [(host.host_id // half) % half]
                    )
                else:
                    agg.fib.add_route(host.host_id, uplinks)
            agg.finalize()
    for core in cores:
        for host in net.hosts:
            core.fib.add_route(host.host_id, [host.host_id // (half * half)])
        core.finalize()

    optimize_network(net)
    return net


def star(
    num_hosts: int = 9,
    params: Optional[TopologyParams] = None,
    seed: int = 1,
) -> Network:
    """All hosts on one switch — the testbed microbenchmark topology."""
    params = params or TopologyParams()
    net = _new_network(seed)
    switch = Switch(net.engine, 0, params.switch_config, net.stats, name="tor0")
    net.switches.append(switch)
    for host_id in range(num_hosts):
        host = Host(net.engine, host_id)
        net.hosts.append(host)
        hport = host.attach_port(params.link_rate_bps, params.host_link_delay_ns)
        sport = switch.add_port(params.link_rate_bps, params.host_link_delay_ns)
        connect(hport, sport)
        switch.fib.add_route(host_id, [host_id])
    switch.finalize()
    optimize_network(net)
    return net


def dumbbell(
    left_hosts: int = 7,
    right_hosts: int = 2,
    params: Optional[TopologyParams] = None,
    seed: int = 1,
) -> Network:
    """Two switches joined by one inter-switch link (testbed §7.4)."""
    params = params or TopologyParams()
    net = _new_network(seed)
    sw_left = Switch(net.engine, 0, params.switch_config, net.stats, name="swL")
    sw_right = Switch(net.engine, 1, params.switch_config, net.stats, name="swR")
    net.switches.extend([sw_left, sw_right])

    for host_id in range(left_hosts + right_hosts):
        host = Host(net.engine, host_id)
        net.hosts.append(host)
        switch = sw_left if host_id < left_hosts else sw_right
        hport = host.attach_port(params.link_rate_bps, params.host_link_delay_ns)
        sport = switch.add_port(params.link_rate_bps, params.host_link_delay_ns)
        connect(hport, sport)

    # Inter-switch trunk.
    lport = sw_left.add_port(params.link_rate_bps, params.fabric_link_delay_ns)
    rport = sw_right.add_port(params.link_rate_bps, params.fabric_link_delay_ns)
    connect(lport, rport)

    for host in net.hosts:
        if host.host_id < left_hosts:
            sw_left.fib.add_route(host.host_id, [host.host_id])
            sw_right.fib.add_route(host.host_id, [right_hosts])
        else:
            sw_left.fib.add_route(host.host_id, [left_hosts])
            sw_right.fib.add_route(host.host_id, [host.host_id - left_hosts])
    sw_left.finalize()
    sw_right.finalize()
    optimize_network(net)
    return net
