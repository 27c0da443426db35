"""Factory: create a sender/receiver pair by transport name.

Names: ``tcp``, ``dctcp`` (byte-stream family) and ``dcqcn``,
``dcqcn-sack``, ``irn``, ``hpcc`` (RoCE family). Host loss recovery
(RTO flavour, TLP) is the ``TransportConfig.recovery`` spec
(:mod:`repro.transport.recovery`); TLT is the ``tlt`` argument.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Optional, Tuple

from repro.core.config import TltConfig
from repro.core.rate import attach_rate_tlt
from repro.core.window import attach_window_tlt
from repro.net.topology import Network
from repro.transport.base import FlowSpec, TransportConfig
from repro.transport.dctcp import DctcpReceiver, DctcpSender
from repro.transport.recovery import Recovery, resolve_recovery
from repro.transport.roce import create_roce_flow
from repro.transport.tcp import TcpReceiver, TcpSender


def _stream_pair(sender_cls, receiver_cls, net: Network, spec: FlowSpec, config: TransportConfig):
    sender = sender_cls(net.host(spec.src), spec, config, net.stats)
    return sender, receiver_cls(net.host(spec.dst), spec, config, net.stats)


TRANSPORTS = {
    "tcp": partial(_stream_pair, TcpSender, TcpReceiver),
    "dctcp": partial(_stream_pair, DctcpSender, DctcpReceiver),
    "dcqcn": partial(create_roce_flow, "dcqcn"),
    "dcqcn-sack": partial(create_roce_flow, "dcqcn-sack"),
    "irn": partial(create_roce_flow, "irn"),
    "hpcc": partial(create_roce_flow, "hpcc"),
}

#: Transports whose TLT flavor is the window-based controller (§5.1);
#: the rest use the rate-based controller (§5.2).
WINDOW_TLT = {"tcp", "dctcp", "irn", "hpcc"}


def resolve_config(name: str, config: Optional[TransportConfig] = None) -> TransportConfig:
    """The config flows of transport ``name`` run with: its recovery
    spec resolved for ``name``, ECT set for DCTCP. Returns ``config``
    itself when it already is resolved, so a run that resolves once
    shares one config and one :class:`Recovery` between all its flows;
    transports only ever read them."""
    config = config or TransportConfig()
    changes, recovery = {}, config.recovery
    if not isinstance(recovery, Recovery):
        changes["recovery"] = resolve_recovery(recovery, name)
    elif recovery.transport != name:
        raise TypeError(f"recovery resolved for {recovery.transport!r}, not {name!r}")
    if name == "dctcp" and not config.ecn:
        changes["ecn"] = True
    return replace(config, **changes) if changes else config


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
        attach = attach_window_tlt if name in WINDOW_TLT else attach_rate_tlt
        attach(sender, receiver, tlt, net.stats)
    return sender, receiver
