"""DCQCN rate control (Zhu et al., SIGCOMM 2015).

The receiver-side piece (CNP generation, at most one per 50 µs while CE
marks arrive) lives in :class:`repro.transport.roce.RoceReceiver`; this
module is the sender-side rate machine:

- **cut** on CNP: ``Rt = Rc; Rc = Rc·(1-α/2); α = (1-g)·α + g``;
- **α decay** every 55 µs without a CNP: ``α = (1-g)·α``;
- **increase** events from a 55 µs timer and a byte counter, moving
  through fast recovery → additive increase → hyper increase stages.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim.engine import Engine
from repro.transport.base import TransportConfig


class DcqcnRateControl:
    """Per-flow DCQCN rate state machine."""

    def __init__(self, engine: Engine, config: TransportConfig, on_rate_change: Optional[Callable[[], None]] = None):
        self.engine = engine
        self.config = config
        self.on_rate_change = on_rate_change
        self.rc = float(config.link_rate_bps)  # current rate
        self.rt = float(config.link_rate_bps)  # target rate
        self.rate_bps = config.link_rate_bps  # int(rc): the sender paces every packet by it
        self.alpha = 1.0
        self.time_stage = 0
        self.byte_stage = 0
        self._bytes_since = 0
        self._alpha_event = None
        self._rate_event = None
        self._active = False

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        if self._active:
            return
        self._active = True
        self._schedule_alpha_timer()
        self._schedule_rate_timer()

    def stop(self) -> None:
        self._active = False
        for event in (self._alpha_event, self._rate_event):
            if event is not None:
                event.cancel()
        self._alpha_event = None
        self._rate_event = None

    # -- congestion feedback ---------------------------------------------------

    def on_cnp(self) -> None:
        """React to a Congestion Notification Packet: cut the rate."""
        g = self.config.dcqcn_g
        self.rt = self.rc
        self.rc = max(self.rc * (1 - self.alpha / 2), self.config.min_rate_bps)
        self.rate_bps = int(self.rc)
        self.alpha = (1 - g) * self.alpha + g
        self.time_stage = 0
        self.byte_stage = 0
        self._bytes_since = 0
        self._schedule_alpha_timer(restart=True)
        self._schedule_rate_timer(restart=True)
        self._notify()

    def on_bytes_sent(self, nbytes: int) -> None:
        """Feed the byte counter; may trigger an increase event."""
        if not self._active:
            return
        self._bytes_since += nbytes
        if self._bytes_since >= self.config.dcqcn_byte_counter:
            self._bytes_since = 0
            self.byte_stage += 1
            self._increase()

    # -- timers ---------------------------------------------------------------------

    def _schedule_alpha_timer(self, restart: bool = False) -> None:
        if self._alpha_event is not None:
            if not restart:
                return
            self._alpha_event.cancel()
        self._alpha_event = self.engine.schedule_timer(
            self.config.dcqcn_alpha_timer_ns, self._alpha_fire
        )

    def _alpha_fire(self) -> None:
        self._alpha_event = None
        if not self._active:
            return
        self.alpha *= 1 - self.config.dcqcn_g
        self._schedule_alpha_timer()

    def _schedule_rate_timer(self, restart: bool = False) -> None:
        if self._rate_event is not None:
            if not restart:
                return
            self._rate_event.cancel()
        self._rate_event = self.engine.schedule_timer(
            self.config.dcqcn_rate_timer_ns, self._rate_fire
        )

    def _rate_fire(self) -> None:
        self._rate_event = None
        if not self._active:
            return
        self.time_stage += 1
        self._increase()
        self._schedule_rate_timer()

    # -- increase stages -----------------------------------------------------------

    def _increase(self) -> None:
        f = self.config.dcqcn_fr_stages
        if self.time_stage < f and self.byte_stage < f:
            pass  # fast recovery: move Rc halfway to Rt, target unchanged
        elif self.time_stage >= f and self.byte_stage >= f:
            self.rt += self.config.dcqcn_rate_hai_bps  # hyper increase
        else:
            self.rt += self.config.dcqcn_rate_ai_bps  # additive increase
        self.rt = min(self.rt, float(self.config.link_rate_bps))
        self.rc = (self.rt + self.rc) / 2
        self.rc = min(self.rc, float(self.config.link_rate_bps))
        self.rate_bps = int(self.rc)
        self._notify()

    def _notify(self) -> None:
        if self.on_rate_change is not None:
            self.on_rate_change()
