"""Factory: create a sender/receiver pair by transport name.

Names: ``tcp``, ``dctcp`` (byte-stream family) and ``dcqcn``,
``dcqcn-sack``, ``irn``, ``hpcc`` (RoCE family). TLP and TLT are
orthogonal add-ons selected via ``TransportConfig.tlp_enabled`` and the
``tlt`` argument respectively.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Tuple

from repro.core.config import TltConfig
from repro.net.topology import Network
from repro.transport.base import FlowSpec, TransportConfig


def _tcp_pair(net: Network, spec: FlowSpec, config: TransportConfig):
    from repro.transport.tcp import TcpReceiver, TcpSender

    sender = TcpSender(net.host(spec.src), spec, config, net.stats)
    receiver = TcpReceiver(net.host(spec.dst), spec, config, net.stats)
    return sender, receiver


def _dctcp_pair(net: Network, spec: FlowSpec, config: TransportConfig):
    from repro.transport.dctcp import DctcpReceiver, DctcpSender

    sender = DctcpSender(net.host(spec.src), spec, config, net.stats)
    receiver = DctcpReceiver(net.host(spec.dst), spec, config, net.stats)
    return sender, receiver


def _roce_pair(variant: str):
    def build(net: Network, spec: FlowSpec, config: TransportConfig):
        from repro.transport.roce import create_roce_flow

        return create_roce_flow(variant, net, spec, config)

    return build


TRANSPORTS = {
    "tcp": _tcp_pair,
    "dctcp": _dctcp_pair,
    "dcqcn": _roce_pair("dcqcn"),
    "dcqcn-sack": _roce_pair("dcqcn-sack"),
    "irn": _roce_pair("irn"),
    "hpcc": _roce_pair("hpcc"),
}

#: Transports whose TLT flavor is the window-based controller (§5.1);
#: the rest use the rate-based controller (§5.2).
WINDOW_TLT = {"tcp", "dctcp", "irn", "hpcc"}


def resolve_config(name: str, config: Optional[TransportConfig] = None) -> TransportConfig:
    """The config flows of transport ``name`` run with (DCTCP sets
    ECT). Returns ``config`` itself when it already is resolved, so a
    run that resolves once shares one object between all its flows;
    transports only ever read it."""
    config = config or TransportConfig()
    if name == "dctcp" and not config.ecn:
        config = replace(config, ecn=True)
    return config


def create_flow(
    name: str,
    net: Network,
    spec: FlowSpec,
    config: Optional[TransportConfig] = None,
    tlt: Optional[TltConfig] = None,
) -> Tuple[object, object]:
    """Create sender and receiver for ``spec``; optionally attach TLT."""
    if name not in TRANSPORTS:
        raise KeyError(f"unknown transport {name!r}; choose from {sorted(TRANSPORTS)}")
    sender, receiver = TRANSPORTS[name](net, spec, resolve_config(name, config))
    if tlt is not None:
        if name in WINDOW_TLT:
            from repro.core.window import attach_window_tlt

            attach_window_tlt(sender, receiver, tlt, net.stats)
        else:
            from repro.core.rate import attach_rate_tlt

            attach_rate_tlt(sender, receiver, tlt, net.stats)
    return sender, receiver
