"""Priority-based Flow Control (802.1Qbb) engine.

Per-ingress-port byte accounting with XOFF/XON thresholds. When an
ingress port's buffered bytes cross XOFF, the switch sends a PAUSE
frame (maximum quanta) to the upstream transmitter and keeps refreshing
it until the count drops below XON, at which point an explicit RESUME
(zero-quanta PAUSE) is sent. This reproduces the Head-of-Line blocking
behaviour whose costs the paper measures: every flow sharing the paused
ingress port stalls, whatever its egress.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.sim.units import tx_time_ns

if TYPE_CHECKING:  # pragma: no cover
    from repro.switchsim.switch import Switch

#: 802.1Qbb pause time unit: 512 bit-times.
PAUSE_QUANTUM_BITS = 512
#: Maximum pause duration in quanta (16-bit field).
MAX_PAUSE_QUANTA = 0xFFFF


def max_pause_ns(rate_bps: int) -> int:
    """Duration of a maximum-quanta PAUSE on a ``rate_bps`` link."""
    return tx_time_ns(MAX_PAUSE_QUANTA * PAUSE_QUANTUM_BITS // 8, rate_bps)


@dataclass
class PfcConfig:
    """PFC thresholds. ``None`` XOFF derives a default from the buffer."""

    enabled: bool = False
    xoff_bytes: Optional[int] = None
    xon_fraction: float = 0.8  # XON = xon_fraction * XOFF

    def resolved_xoff(self, buffer_bytes: int, num_ports: int) -> int:
        if self.xoff_bytes is not None:
            return self.xoff_bytes
        # Static per-ingress-port share of half the pool, as in common
        # lossless configurations: the other half is headroom for the
        # packets in flight while a PAUSE propagates upstream.
        return max(buffer_bytes // (2 * max(num_ports, 1)), 3_000)


class PfcEngine:
    """Per-switch PFC state machine over all ingress ports."""

    def __init__(self, switch: "Switch", xoff_bytes: int, xon_bytes: int):
        self.switch = switch
        self.engine = switch.engine
        self.xoff = xoff_bytes
        self.xon = xon_bytes
        # Indexed by ingress port number (the switch is finalized: its
        # ports are all there); read twice per packet.
        self.ingress_bytes: List[int] = [0] * len(switch.ports)
        self.asserted: List[bool] = [False] * len(switch.ports)
        self._refresh_events: Dict[int, object] = {}
        self.pause_frames_sent = 0
        self.resume_frames_sent = 0
        # Optional audit trace ring (set by repro.audit.Auditor).
        self.audit_ring = None

    # -- accounting ------------------------------------------------------------

    def on_admit(self, ingress_port_no: int, size: int) -> None:
        total = self.ingress_bytes[ingress_port_no] + size
        self.ingress_bytes[ingress_port_no] = total
        if total >= self.xoff and not self.asserted[ingress_port_no]:
            self._assert_pause(ingress_port_no)

    def on_release(self, ingress_port_no: int, size: int) -> None:
        total = self.ingress_bytes[ingress_port_no] - size
        self.ingress_bytes[ingress_port_no] = total
        if total <= self.xon and self.asserted[ingress_port_no]:
            self._deassert_pause(ingress_port_no)

    # -- pause frames ----------------------------------------------------------

    def _assert_pause(self, port_no: int) -> None:
        self.asserted[port_no] = True
        self._send_pause(port_no)

    def _send_pause(self, port_no: int) -> None:
        if not self.asserted[port_no]:
            return
        port = self.switch.ports[port_no]
        duration = max_pause_ns(port.rate_bps)
        port.send_pause(duration)
        self.pause_frames_sent += 1
        self.switch.stats.pause_frames += 1
        if self.audit_ring is not None:
            self.audit_ring.record(
                "pfc_pause", device=self.switch.name, port=port_no,
                time_ns=self.engine.now,
                info=self.ingress_bytes[port_no],
            )
        # Refresh before the quanta expire, as real switches do while
        # the ingress stays above XOFF.
        event = self.engine.schedule_timer(duration // 2, self._send_pause, port_no)
        self._refresh_events[port_no] = event

    def _deassert_pause(self, port_no: int) -> None:
        self.asserted[port_no] = False
        event = self._refresh_events.pop(port_no, None)
        if event is not None:
            event.cancel()
        self.switch.ports[port_no].send_pause(0)
        self.resume_frames_sent += 1
        self.switch.stats.resume_frames += 1
        if self.audit_ring is not None:
            self.audit_ring.record(
                "pfc_resume", device=self.switch.name, port=port_no,
                time_ns=self.engine.now,
                info=self.ingress_bytes[port_no],
            )
