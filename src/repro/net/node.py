"""Devices: the common device interface, hosts and host NICs.

Receive-path interception
-------------------------

Every :class:`Device` carries an ordered list of *interceptors* between
the wire and its receive implementation. Loss models
(:class:`repro.faults.FaultInjector`), debugging taps
(:class:`repro.sim.trace.PacketTracer`) and test drop filters all
install through :meth:`Device.add_interceptor` instead of
monkey-patching ``device.receive`` — so they compose in a defined
order, survive the switch rebinding its data path (auditor attach and
detach, compiled-kernel binding), and can be added or removed mid-run.

The chain is compiled into nested closures whenever it changes: with no
interceptors installed, ``device.receive`` *is* the base implementation
(the uninstrumented hot path pays nothing). Links dispatch through the
device at delivery time (see :meth:`repro.net.link.Port._deliver`), so
a packet already in flight still traverses an interceptor installed
before it lands.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional

from repro.net.link import Port
from repro.net.packet import Packet, recycle
from repro.sim.engine import Engine


class Interceptor:
    """Base class for receive-path interceptors.

    Subclasses override :meth:`on_packet` and either call
    ``forward(packet, in_port)`` to pass the packet down the chain or
    return without calling it to consume (drop) the packet. An
    interceptor that drops is responsible for accounting and for
    returning the packet to the free list (``recycle``).
    """

    def on_packet(self, packet: Packet, in_port: Port, forward: Callable) -> None:
        forward(packet, in_port)


def _stage(interceptor: Interceptor, nxt: Callable) -> Callable:
    """One compiled chain stage: interceptor -> rest of the chain."""

    def stage(packet, in_port, _on_packet=interceptor.on_packet, _next=nxt):
        _on_packet(packet, in_port, _next)

    return stage


class Device:
    """Anything with ports: a host or a switch.

    Subclasses implement the receive path (packet arrived on
    ``in_port``) — registered via :meth:`_set_base_receive` — and
    :meth:`poll` (the port asks for the next packet to serialize).
    ``self.receive`` is always the effective entry point: the base
    implementation with the interceptor chain (if any) compiled in
    front of it.
    """

    def __init__(self, engine: Engine, name: str):
        self.engine = engine
        self.name = name
        self.ports: list = []
        self._interceptors: List[Interceptor] = []
        self._base_receive: Optional[Callable] = None

    def add_port(self, rate_bps: int, delay_ns: int) -> Port:
        port = Port(self.engine, self, len(self.ports), rate_bps, delay_ns)
        self.ports.append(port)
        return port

    def receive(self, packet: Packet, in_port: Port) -> None:
        raise NotImplementedError

    def poll(self, port: Port) -> Optional[Packet]:
        raise NotImplementedError

    def receive_pause(self, duration_ns: int, in_port: Port) -> None:
        """A PFC PAUSE arrived: stop transmitting out of ``in_port``."""
        in_port.apply_pause(duration_ns)

    # -- receive-path interception ---------------------------------------------

    def _set_base_receive(self, fn: Callable) -> None:
        """Register (or swap) the base receive implementation.

        The interceptor chain is preserved across swaps — this is how
        :meth:`repro.switchsim.switch.Switch.set_auditor` swaps the
        compiled kernel and the Python pipeline without dropping
        installed interceptors.
        """
        self._base_receive = fn
        self._rebuild_receive()

    def _rebuild_receive(self) -> None:
        chain = self._base_receive
        for interceptor in reversed(self._interceptors):
            chain = _stage(interceptor, chain)
        self.receive = chain  # type: ignore[method-assign]

    def add_interceptor(self, interceptor: Interceptor, index: Optional[int] = None) -> None:
        """Install ``interceptor``; earliest-installed runs first.

        ``index`` inserts at a specific chain position (0 = closest to
        the wire). Takes effect immediately, including for packets
        already in flight toward this device.
        """
        if interceptor in self._interceptors:
            raise ValueError(f"{interceptor!r} is already installed on {self.name}")
        if index is None:
            self._interceptors.append(interceptor)
        else:
            self._interceptors.insert(index, interceptor)
        self._rebuild_receive()

    def remove_interceptor(self, interceptor: Interceptor) -> None:
        """Uninstall ``interceptor``; raises ValueError if absent."""
        self._interceptors.remove(interceptor)
        self._rebuild_receive()

    @property
    def interceptors(self) -> tuple:
        """The installed interceptors, in traversal order."""
        return tuple(self._interceptors)

    def __repr__(self) -> str:  # pragma: no cover
        return self.name


class HostNic:
    """The host's transmit queue.

    Transports hand fully formed packets to the NIC; the attached port
    drains the queue at line rate. The queue is unbounded (host memory),
    and it is the entity PFC pauses when a ToR pushes back on a host.
    """

    def __init__(self, host: "Host"):
        self.host = host
        self.queue: Deque[Packet] = deque()

    def enqueue(self, packet: Packet) -> None:
        self.queue.append(packet)
        self.host.port.kick()

    def pending_bytes(self) -> int:
        return sum(p.size for p in self.queue)

    def __len__(self) -> int:
        return len(self.queue)


class Host(Device):
    """An end host: one NIC port plus a demux table of transport endpoints."""

    def __init__(self, engine: Engine, host_id: int, name: Optional[str] = None):
        super().__init__(engine, name or f"host{host_id}")
        self.host_id = host_id
        self.nic = HostNic(self)
        self.endpoints: Dict[int, "SupportsOnPacket"] = {}
        # Bound-method alias for the per-delivery demux lookup (the
        # dict itself is mutated in place, so the binding stays valid).
        self._endpoint_for = self.endpoints.get
        self.port: Optional[Port] = None  # set by topology builder
        self._set_base_receive(self._sink_receive)

    def attach_port(self, rate_bps: int, delay_ns: int) -> Port:
        self.port = self.add_port(rate_bps, delay_ns)
        return self.port

    # -- device interface ------------------------------------------------------

    def _sink_receive(self, packet: Packet, in_port: Port) -> None:
        endpoint = self._endpoint_for(packet.flow_id)
        if endpoint is not None:
            endpoint.on_packet(packet)
        # The host is the packet's sink: return it to the free list once
        # the endpoint handler is done with it.
        recycle(packet)

    def poll(self, port: Port) -> Optional[Packet]:
        queue = self.nic.queue
        if queue:
            return queue.popleft()
        return None

    # -- transport helpers --------------------------------------------------------

    def register_endpoint(self, flow_id: int, endpoint: "SupportsOnPacket") -> None:
        self.endpoints[flow_id] = endpoint

    def unregister_endpoint(self, flow_id: int) -> None:
        self.endpoints.pop(flow_id, None)

    def send(self, packet: Packet) -> None:
        """Queue a packet on the NIC for transmission."""
        # Flattened nic.enqueue: this is once-per-packet-sent. The
        # busy-guard is hoisted out of kick(): while a burst drains, every
        # send after the first finds the port mid-serialization.
        self.nic.queue.append(packet)
        port = self.port
        if not port.busy and not port.paused:
            port.kick()


class SupportsOnPacket:
    """Protocol for transport endpoints registered at a host."""

    def on_packet(self, packet: Packet) -> None:  # pragma: no cover - interface
        raise NotImplementedError


Callback = Callable[..., None]
