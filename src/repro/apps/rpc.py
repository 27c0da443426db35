"""One-message-per-flow RPC over the simulated transports.

Each message travels as its own flow (the paper's workloads open
persistent connections, but per-message flows model the same network
behaviour for unidirectional messages while keeping flow accounting —
FCTs, timeouts — per message, which is what the benchmarks measure).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.core.config import TltConfig
from repro.net.topology import Network
from repro.transport.base import FlowSpec, TransportConfig
from repro.transport.registry import create_flow

#: handler(src_host_id, payload_size, meta) — called on message arrival.
Handler = Callable[[int, int, Dict[str, Any]], None]


class MessageDelivery:
    """Per-message ``on_complete_rx`` callback.

    A callable class rather than a closure so a message in flight never
    blocks engine checkpointing (:mod:`repro.sim.checkpoint`): closures
    do not pickle, instances of this do — behaviour is identical.
    """

    __slots__ = ("dst", "src_host_id", "size", "meta")

    def __init__(self, dst: "RpcNode", src_host_id: int, size: int,
                 meta: Dict[str, Any]):
        self.dst = dst
        self.src_host_id = src_host_id
        self.size = size
        self.meta = meta

    def __call__(self, record) -> None:
        dst = self.dst
        dst.messages_received += 1
        meta = self.meta
        for handler in dst.handlers:
            handler(self.src_host_id, self.size, meta)
        handler = dst.client_handlers.get(meta.get("client_tag"))
        if handler is not None:
            handler(self.src_host_id, self.size, meta)


class RpcNode:
    """A host-level messaging endpoint."""

    def __init__(
        self,
        net: Network,
        host_id: int,
        transport: str = "dctcp",
        config: Optional[TransportConfig] = None,
        tlt: Optional[TltConfig] = None,
    ):
        self.net = net
        self.host_id = host_id
        self.transport = transport
        self.config = config or TransportConfig()
        self.tlt = tlt
        self.handlers: list = []
        self.client_handlers: Dict[int, Handler] = {}
        self.messages_received = 0
        self._next_client_tag = 0

    def alloc_client_tag(self) -> int:
        """Allocate a reply-demux tag, unique among clients sharing
        this node (replies only ever fan out to one node's handlers).
        Node-local — not a process global — so a checkpoint-restored
        run keeps allocating the same deterministic sequence."""
        tag = self._next_client_tag
        self._next_client_tag += 1
        return tag

    def on_message(self, handler: Handler, client_tag: Optional[int] = None) -> None:
        """Register an arrival handler. It runs for every message (and
        filters on ``meta``) — or, given a ``client_tag`` from
        :meth:`alloc_client_tag`, only for messages whose ``meta``
        carries that tag: the replies to one client's operations."""
        if client_tag is None:
            self.handlers.append(handler)
        else:
            self.client_handlers[client_tag] = handler

    def send(
        self,
        dst: "RpcNode",
        size: int,
        group: str = "fg",
        meta: Optional[Dict[str, Any]] = None,
        delay_ns: int = 0,
    ) -> FlowSpec:
        """Send ``size`` bytes to ``dst``; its handler fires on delivery."""
        meta = meta or {}
        delivered = MessageDelivery(dst, self.host_id, size, meta)
        spec = FlowSpec(
            flow_id=self.net.new_flow_id(),
            src=self.host_id,
            dst=dst.host_id,
            size=size,
            start_ns=self.net.engine.now + delay_ns,
            group=group,
            on_complete_rx=delivered,
        )
        if delay_ns == 0:
            create_flow(self.transport, self.net, spec, self.config, self.tlt)
        else:
            self.net.engine.schedule(
                delay_ns,
                create_flow,
                self.transport,
                self.net,
                spec,
                self.config,
                self.tlt,
            )
        return spec
