"""A Redis-like in-memory key-value store over :mod:`repro.apps.rpc`.

SET carries the value toward the server (fan-in — the incast pattern of
the paper's benchmark); GET carries the value back. Every operation's
client-perceived response time (request sent → reply delivered) is
recorded.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.apps.rpc import RpcNode

#: Wire size of a request header / an OK reply, bytes.
REQUEST_BYTES = 100
REPLY_OK_BYTES = 100


class KvServer:
    """Stores values (sizes — contents don't affect the network) and
    replies to every operation."""

    def __init__(self, node: RpcNode):
        self.node = node
        self.store: Dict[str, int] = {}
        self.clients: Dict[int, RpcNode] = {}
        node.on_message(self._handle)

    def register_client(self, client: "KvClient") -> None:
        self.clients[client.node.host_id] = client.node

    def _handle(self, src: int, size: int, meta: Dict[str, Any]) -> None:
        op = meta.get("op")
        if op == "set":
            self.store[meta["key"]] = meta["value_size"]
            self._reply(src, REPLY_OK_BYTES, meta)
        elif op == "get":
            value = self.store.get(meta["key"], 0)
            self._reply(src, max(value, REPLY_OK_BYTES), meta)

    def _reply(self, src: int, size: int, meta: Dict[str, Any],
               delay_ns: int = 0) -> None:
        client_node = self.clients.get(src)
        if client_node is None:
            return
        reply_meta = dict(meta)
        reply_meta["op"] = "reply"
        self.node.send(client_node, size, meta=reply_meta, delay_ns=delay_ns)


class KvClient:
    """Issues SET/GET operations and records response times (ns).

    Multiple clients may share one host node; each tags its operations
    so replies are routed to the issuing client. Tags are allocated by
    the node (node-local counter, see :meth:`RpcNode.alloc_client_tag`)
    so a checkpoint-restored run keeps the same deterministic sequence
    a process-global counter could not guarantee.
    """

    def __init__(self, node: RpcNode, server: KvServer):
        self.node = node
        self.server = server
        self.tag = node.alloc_client_tag()
        self.engine = node.net.engine
        self.response_times: List[int] = []
        self.pending: Dict[int, int] = {}  # op id -> issue time
        self._callbacks: Dict[int, Any] = {}
        self._next_op = 0
        server.register_client(self)
        node.on_message(self._on_reply, client_tag=self.tag)

    # -- operations ---------------------------------------------------------------

    def set(self, key: str, value_size: int, on_reply=None) -> int:
        """SET: ships the value to the server; returns the op id."""
        return self._issue(
            "set", key, value_size, wire_size=REQUEST_BYTES + value_size,
            on_reply=on_reply,
        )

    def get(self, key: str, on_reply=None) -> int:
        """GET: small request; the server ships the value back."""
        return self._issue("get", key, 0, wire_size=REQUEST_BYTES, on_reply=on_reply)

    def _issue(self, op: str, key: str, value_size: int, wire_size: int, on_reply=None) -> int:
        op_id = self._next_op
        self._next_op += 1
        self.pending[op_id] = self.engine.now
        if on_reply is not None:
            self._callbacks[op_id] = on_reply
        meta = {
            "op": op,
            "key": key,
            "value_size": value_size,
            "op_id": op_id,
            "client_tag": self.tag,
        }
        self.node.send(self.server.node, wire_size, meta=meta)
        return op_id

    def _on_reply(self, src: int, size: int, meta: Dict[str, Any]) -> None:
        if meta.get("op") != "reply" or meta.get("client_tag") != self.tag:
            return
        op_id = meta["op_id"]
        issued = self.pending.pop(op_id, None)
        if issued is not None:
            self.response_times.append(self.engine.now - issued)
        callback = self._callbacks.pop(op_id, None)
        if callback is not None:
            callback(op_id)

    @property
    def outstanding(self) -> int:
        return len(self.pending)
