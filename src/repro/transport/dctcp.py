"""DCTCP: ECN-fraction-proportional window control (Alizadeh et al.).

The receiver echoes the CE bit of every data packet (we ACK every
packet, so the echo is exact — equivalent to DCTCP's delayed-ACK state
machine at higher fidelity). The sender maintains the EWMA marked
fraction α per observation window and reduces ``cwnd`` once per window
by ``α/2``. On packet loss DCTCP falls back to vanilla TCP halving.
"""

from __future__ import annotations

from repro.net.node import Host
from repro.stats.collector import NetStats
from repro.transport.base import (
    ByteStreamReceiver,
    ByteStreamSender,
    FlowSpec,
    TransportConfig,
)

#: EWMA gain of the marked fraction α (the DCTCP paper's g).
DCTCP_G = 1.0 / 16.0


class DctcpSender(ByteStreamSender):
    """DCTCP sender; requires ``config.ecn = True``."""

    name = "dctcp"

    def __init__(self, host: Host, spec: FlowSpec, config: TransportConfig, stats: NetStats):
        super().__init__(host, spec, config, stats)
        self.alpha = 1.0  # start conservative, as in the DCTCP paper
        self._acked_total = 0
        self._acked_marked = 0
        self._obs_window_end = 0
        self._cwr_window_end = -1

    # -- hooks ------------------------------------------------------------------

    def cc_on_ack(self, newly_acked: int, ecn_echo: bool) -> None:
        if ecn_echo:
            self._acked_marked += newly_acked
            # One proportional reduction per window of data.
            if self.snd_una > self._cwr_window_end:
                self._cwr_window_end = self.snd_nxt
                new_cwnd = int(self.cwnd * (1 - self.alpha / 2))
                self.cwnd = max(new_cwnd, self.mss)
                self.ssthresh = self.cwnd
                self._ca_acc = 0
        self._acked_total += newly_acked
        if self.snd_una >= self._obs_window_end:
            if self._acked_total > 0:
                fraction = self._acked_marked / self._acked_total
                self.alpha = (1 - DCTCP_G) * self.alpha + DCTCP_G * fraction
            self._acked_total = 0
            self._acked_marked = 0
            self._obs_window_end = self.snd_nxt


class DctcpReceiver(ByteStreamReceiver):
    """DCTCP receiver: CE echo happens in the base (per-packet ACKs)."""


def dctcp_config(**overrides) -> TransportConfig:
    """A TransportConfig with DCTCP defaults (ECN on)."""
    config = TransportConfig(**overrides)
    config.ecn = True
    return config
