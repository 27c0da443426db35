"""Datacenter transports implemented from scratch on the simulator.

Both families inherit one reliable-delivery core,
:mod:`repro.transport.reliable` (scoreboard, SACK, loss detection, RTO).

TCP family (byte-stream, window-based):
  - :mod:`repro.transport.tcp` — TCP NewReno with SACK and dup-ACK
    threshold 1 (early retransmit),
  - :mod:`repro.transport.dctcp` — DCTCP.

RoCE family (packet-sequence):
  - :mod:`repro.transport.roce` — the shared PSN base (go-back-N or
    selective retransmission, CNP plumbing, rate pacing, window caps),
  - :mod:`repro.transport.dcqcn` — DCQCN rate control (vanilla and
    +SACK variants),
  - :mod:`repro.transport.hpcc` — HPCC (INT-based window control).

Use :func:`repro.transport.registry.create_flow` to instantiate a
sender/receiver pair by transport name.
"""

from repro.transport.base import FlowSpec, TransportConfig
from repro.transport.registry import TRANSPORTS, create_flow

__all__ = ["FlowSpec", "TransportConfig", "TRANSPORTS", "create_flow"]
