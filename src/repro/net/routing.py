"""ECMP routing: static-hash, flowlet and weighted path selection.

Production datacenters hash the 5-tuple so all packets of a flow take
one path (the paper's §5 assumption that reordering is rare). We hash
``(flow_id, switch_id)`` with a stable CRC so paths are deterministic
across runs and independent between switches.

Beyond the default static hash, two multipath selectors probe the
regimes the paper's single-path assumption rules out:

- **flowlet** (:class:`FlowletFib`) — idle-gap flowlet switching: a
  flow is re-hashed onto a (possibly different) candidate whenever the
  gap since its last packet at this switch exceeds ``idle_gap_ns``, so
  bursts stay ordered but a flow escapes a congested or degraded path
  between bursts. Selection is a salted hash of ``(flow, epoch)`` —
  no RNG — so runs are deterministic and shard-replicas agree.
- **wcmp** (:class:`WcmpFib`) — weighted-cost multipath: candidates
  are picked proportionally to per-port weights (defaulting to link
  capacity, see :func:`capacity_weight`), the standard answer to
  asymmetric fabrics where equal spreading overloads the thin path.

Each switch builds its own FIB (routes, flowlet table) from the
``path_selection`` spec (docs/API.md, "Specs").

Fault model: :meth:`Fib.disable_port` / :meth:`Fib.enable_port` keep a
pristine copy of every affected route plus the set of currently-down
ports, so overlapping failure windows compose: healing one port
recomputes each touched route as *pristine minus still-down*, never
resurrecting a route through a port whose own window is still open.
"""

from __future__ import annotations

import zlib
from bisect import bisect_right
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.sim.units import GBPS
from repro.spec import Named, PositiveInt, named


class RoutingError(KeyError):
    """A destination with no route (or no live candidate) at a switch.

    Subclasses ``KeyError`` so legacy ``except KeyError`` handlers and
    the compiled kernel's route-miss path stay compatible, but carries
    a readable message naming switch and destination.
    """

    def __init__(self, switch_id: int, dst_host: int, detail: str = "no route"):
        super().__init__(dst_host)
        self.switch_id = switch_id
        self.dst_host = dst_host
        self.detail = detail

    def __str__(self) -> str:
        return (
            f"switch {self.switch_id}: {self.detail} for destination "
            f"host {self.dst_host}"
        )


def ecmp_index(flow_id: int, switch_id: int, fanout: int) -> int:
    """Deterministic ECMP next-hop index for a flow at a switch."""
    if fanout <= 0:
        raise ValueError("fanout must be positive")
    if fanout == 1:
        return 0
    key = (flow_id * 2654435761 + switch_id * 40503) & 0xFFFFFFFF
    return zlib.crc32(key.to_bytes(4, "little")) % fanout


def weighted_index(
    flow_id: int, switch_id: int, salt: int, cumulative: Sequence[int]
) -> int:
    """Deterministic weighted next-hop index.

    ``cumulative`` is the inclusive prefix sum of candidate weights;
    the hash point is drawn uniformly in ``[0, total)`` and mapped to
    the owning bucket. With equal weights this degenerates to a uniform
    (but differently-keyed) spread, so weighted modes pin their own
    fingerprints rather than aliasing ``ecmp_index``.
    """
    key = (flow_id * 2654435761 + switch_id * 40503 + salt * 97) & 0xFFFFFFFF
    point = zlib.crc32(key.to_bytes(4, "little")) % cumulative[-1]
    return bisect_right(cumulative, point)


def capacity_weight(rate_bps: int) -> int:
    """Integer path weight for a link of ``rate_bps`` capacity (in Gbps
    granularity; sub-Gbps links still get weight 1)."""
    return max(1, int(rate_bps) // GBPS)


class Fib:
    """Forwarding table: destination host id -> candidate egress ports.

    The default selector — static per-flow ECMP hashing — and the base
    class of every selector. Fault handling, weight bookkeeping and the
    route table live here; subclasses only override :meth:`lookup`
    (and, for stateful selectors, :meth:`on_finalize`).

    .. note:: the compiled backend captures ``self._routes`` (borrowed
       reference) and the bound ``lookup`` at network-build time; all
       mutation must happen *in place* — never reassign ``_routes``.
    """

    #: Selector name in a path-selection spec.
    kind = "static-hash"

    def __init__(self, switch_id: int, engine=None):
        self.switch_id = switch_id
        self._routes: Dict[int, Tuple[int, ...]] = {}
        #: Original candidate tuple of every route touched by an open
        #: failure window (dropped again once fully healed).
        self._pristine: Dict[int, Tuple[int, ...]] = {}
        #: Ports currently withdrawn by the fault layer.
        self._down_ports: Set[int] = set()
        #: Per-port path weight (wcmp/flowlet; capacity-derived by
        #: default, live-updated on link degradation).
        self._weights: Dict[int, int] = {}
        #: Telemetry counters (PathChurnSampler reads these).
        self.flowlets = 0
        self.reroutes = 0

    def add_route(self, dst_host: int, ports: Sequence[int]) -> None:
        if not ports:
            raise ValueError("route needs at least one port")
        self._routes[dst_host] = tuple(ports)

    def lookup(self, dst_host: int, flow_id: int) -> int:
        """Egress port number for ``dst_host``, ECMP-selected by flow."""
        try:
            ports = self._routes[dst_host]
        except KeyError:
            raise RoutingError(self.switch_id, dst_host) from None
        if len(ports) == 1:
            return ports[0]
        return ports[ecmp_index(flow_id, self.switch_id, len(ports))]

    def candidates(self, dst_host: int) -> Tuple[int, ...]:
        return self._routes[dst_host]

    # -- weights -----------------------------------------------------------------

    def set_port_weight(self, port_no: int, weight: int) -> None:
        """Set the path weight of ``port_no`` (ignored by static-hash
        and unweighted-flowlet lookups, but always tracked so a selector
        swap or a link degradation never loses state)."""
        self._weights[port_no] = max(1, int(weight))

    def port_weight(self, port_no: int) -> int:
        return self._weights.get(port_no, 1)

    def on_finalize(self, ports) -> None:
        """Called by ``Switch.finalize`` with the switch's ports:
        default weights follow link capacity, the asymmetric-fabric
        signal WCMP spreads by."""
        for port in ports:
            if port.peer is not None:
                self._weights[port.port_no] = capacity_weight(port.rate_bps)

    def _cumulative(self, ports: Tuple[int, ...]) -> List[int]:
        weights = self._weights
        total = 0
        cumulative = []
        for port_no in ports:
            total += weights.get(port_no, 1)
            cumulative.append(total)
        return cumulative

    # -- fault injection ---------------------------------------------------------

    def unroutable(self) -> Set[int]:
        """Destinations with no live candidate under the current down set."""
        down = self._down_ports
        return {
            dst for dst, pristine in self._pristine.items()
            if all(p in down for p in pristine)
        }

    def disable_port(self, port_no: int) -> Set[int]:
        """Withdraw ``port_no`` from every route (link/switch failure).

        Multi-candidate routes are narrowed in place (ECMP re-spreads
        over the survivors). A destination left with *no* live candidate
        keeps its stale route — the fault layer blackholes those packets
        before lookup. Overlapping windows compose: each affected route
        is recomputed from its pristine candidates minus *every*
        currently-down port.

        Returns the authoritative set of destinations currently
        unroutable at this switch.
        """
        if port_no in self._down_ports:
            return self.unroutable()
        self._down_ports.add(port_no)
        down = self._down_ports
        pristine = self._pristine
        for dst, ports in self._routes.items():
            base = pristine.get(dst, ports)
            if port_no not in base:
                continue
            if dst not in pristine:
                pristine[dst] = base
            remaining = tuple(p for p in base if p not in down)
            if remaining:
                self._routes[dst] = remaining
        return self.unroutable()

    def enable_port(self, port_no: int) -> Set[int]:
        """Re-admit a healed port: every route touched by an open window
        is recomputed as pristine minus the ports still down, so healing
        A never resurrects a path through still-down B.

        Returns the set of destinations *still* unroutable (other
        windows remain open).
        """
        self._down_ports.discard(port_no)
        down = self._down_ports
        if not down:
            self._routes.update(self._pristine)
            self._pristine.clear()
            return set()
        unroutable = set()
        for dst, base in list(self._pristine.items()):
            remaining = tuple(p for p in base if p not in down)
            if remaining == base:
                self._routes[dst] = base
                del self._pristine[dst]
            elif remaining:
                self._routes[dst] = remaining
            else:
                unroutable.add(dst)
        return unroutable


class WcmpFib(Fib):
    """Weighted-cost multipath: stateless per-flow weighted hashing.

    A flow still takes one stable path (no reordering), but the hash
    space is split proportionally to per-port weights — by default link
    capacity, live-updated by ``link_degrade`` fault events — so an
    asymmetric fabric loads each path in proportion to what it can
    carry instead of overloading the thin one.
    """

    kind = "wcmp"

    def lookup(self, dst_host: int, flow_id: int) -> int:
        try:
            ports = self._routes[dst_host]
        except KeyError:
            raise RoutingError(self.switch_id, dst_host) from None
        if len(ports) == 1:
            return ports[0]
        return ports[weighted_index(flow_id, self.switch_id, 0, self._cumulative(ports))]


class FlowletFib(Fib):
    """Flowlet switching on an engine-clocked idle-gap table.

    Packets of one flow arriving within ``idle_gap_ns`` of each other
    form a *flowlet* and stick to one egress (no intra-burst
    reordering). A longer gap opens a new flowlet: the flow is
    re-hashed — salted by a per-flow epoch counter — over the *current*
    candidates and weights, which is what reroutes flows away from
    failed or degraded paths between bursts.

    Determinism: selection depends only on per-switch packet arrival
    order and the engine clock (both bit-identical across backends and
    shard layouts by contract); no RNG is drawn.
    """

    kind = "flowlet"

    #: Default idle gap: comfortably above per-hop serialization and
    #: queueing jitter at 40 Gbps, below the TCP-family base RTT (80 µs)
    #: so inter-burst gaps actually open new flowlets.
    DEFAULT_IDLE_GAP_NS = 50_000

    def __init__(self, switch_id: int, engine, idle_gap_ns: PositiveInt = DEFAULT_IDLE_GAP_NS,
                 weighted: bool = True):
        super().__init__(switch_id)
        if engine is None:
            raise ValueError("flowlet selection needs the engine clock")
        self.engine = engine
        self.idle_gap_ns = idle_gap_ns
        self.weighted = weighted
        #: flow id -> [last packet time, chosen port, flowlet epoch].
        self._table: Dict[int, List[int]] = {}

    def _pick(self, flow_id: int, epoch: int, ports: Tuple[int, ...]) -> int:
        if self.weighted:
            return ports[
                weighted_index(flow_id, self.switch_id, epoch, self._cumulative(ports))
            ]
        if epoch:
            flow_id = (flow_id + epoch * 0x9E3779B1) & 0xFFFFFFFF
        return ports[ecmp_index(flow_id, self.switch_id, len(ports))]

    def lookup(self, dst_host: int, flow_id: int) -> int:
        try:
            ports = self._routes[dst_host]
        except KeyError:
            raise RoutingError(self.switch_id, dst_host) from None
        if len(ports) == 1:
            return ports[0]
        now = self.engine.now
        entry = self._table.get(flow_id)
        if entry is not None:
            last, port, epoch = entry
            # Same flowlet and the chosen path is still a live
            # candidate: stick to it (ordering within the burst).
            if now - last <= self.idle_gap_ns and port in ports:
                entry[0] = now
                return port
            epoch += 1
            new_port = self._pick(flow_id, epoch, ports)
            self.flowlets += 1
            if new_port != port:
                self.reroutes += 1
            entry[0] = now
            entry[1] = new_port
            entry[2] = epoch
            return new_port
        port = self._pick(flow_id, 0, ports)
        self.flowlets += 1
        self._table[flow_id] = [now, port, 0]
        return port


#: Selectors by spec name; each is built as ``cls(switch_id, engine, **params)``.
SELECTORS = {Fib.kind: Fib, FlowletFib.kind: FlowletFib, WcmpFib.kind: WcmpFib}


def path_spec(spec) -> Optional[Named]:
    """The parsed path-selection spec (``None``: static hash)."""
    return named("path_selection", spec, SELECTORS, skip=("switch_id", "engine"))


def make_fib(switch_id: int, spec, engine=None) -> Fib:
    """A fresh FIB for one switch from its (parsed) path-selection spec."""
    parsed = path_spec(spec)
    return Fib(switch_id) if parsed is None else parsed.build(switch_id, engine)
