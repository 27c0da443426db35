"""HPCC window control (Li et al., SIGCOMM 2019).

Every data packet requests in-band telemetry; switches append one
record per hop at dequeue (queue length, cumulative transmitted bytes,
timestamp, link rate), and the receiver echoes the stack on the ACK.
The sender estimates per-link normalized in-flight ``U`` and drives the
window toward ``eta`` (95%) utilization:

- ``U > eta`` (or too many additive steps): ``W = Wc / (U/eta) + W_AI``,
- otherwise ``W = Wc + W_AI``,

with the reference window ``Wc`` updated once per RTT.
"""

from __future__ import annotations

from typing import List, Optional

from repro.net.packet import IntRecord, Packet
from repro.transport.base import TransportConfig

#: Target utilization ``eta``.
HPCC_ETA = 0.95
#: Additive steps before a multiplicative adjustment.
HPCC_MAX_STAGE = 5
#: Additive increase ``W_AI`` per adjustment (bytes).
HPCC_WAI_BYTES = 1000


class HpccController:
    """Per-flow HPCC window computation from echoed INT stacks."""

    def __init__(self, config: TransportConfig):
        self.config = config
        bdp = config.link_rate_bps * config.base_rtt_ns // 8 // 1_000_000_000
        self.window = bdp
        self.reference_window = float(bdp)
        self.max_window = bdp
        self.u = 0.0
        self.inc_stage = 0
        self._last_update_seq = 0
        self._prev_ints: Optional[List[IntRecord]] = None

    def on_ack(self, ack: Packet, snd_nxt: int) -> None:
        """Process an ACK carrying an INT echo; updates ``self.window``."""
        ints = ack.int_echo
        if not ints:
            return
        u = self._measure_inflight(ints)
        update_wc = ack.ack > self._last_update_seq
        self._compute_window(u, update_wc)
        if update_wc:
            self._last_update_seq = snd_nxt
        self._prev_ints = ints

    # -- HPCC Algorithm 1 ------------------------------------------------------

    def _measure_inflight(self, ints: List[IntRecord]) -> float:
        base_rtt = self.config.base_rtt_ns
        prev = self._prev_ints
        u_max = 0.0
        tau = base_rtt
        for hop, record in enumerate(ints):
            if prev is not None and hop < len(prev):
                prev_rec = prev[hop]
                dt = record.ts - prev_rec.ts
                dbytes = record.tx_bytes - prev_rec.tx_bytes
                qlen = min(record.qlen, prev_rec.qlen)
            else:
                dt = base_rtt
                dbytes = 0
                qlen = record.qlen
            if dt <= 0:
                continue
            tx_rate_bps = dbytes * 8 * 1_000_000_000 / dt
            bdp_bytes = record.rate_bps * base_rtt / 8 / 1_000_000_000
            u_hop = qlen / bdp_bytes + tx_rate_bps / record.rate_bps
            if u_hop > u_max:
                u_max = u_hop
                tau = dt
        tau = min(tau, base_rtt)
        self.u = (1 - tau / base_rtt) * self.u + (tau / base_rtt) * u_max
        return self.u

    def _compute_window(self, u: float, update_wc: bool) -> None:
        # An idle path measures U ~ 0; clamp so the multiplicative
        # branch (taken after max_stage additive steps) grows the
        # window instead of dividing by zero.
        u = max(u, 0.01)
        if u >= HPCC_ETA or self.inc_stage >= HPCC_MAX_STAGE:
            new_w = self.reference_window / (u / HPCC_ETA) + HPCC_WAI_BYTES
            if update_wc:
                self.inc_stage = 0
                self.reference_window = new_w
        else:
            new_w = self.reference_window + HPCC_WAI_BYTES
            if update_wc:
                self.inc_stage += 1
                self.reference_window = new_w
        self.window = int(min(max(new_w, HPCC_WAI_BYTES), self.max_window))
