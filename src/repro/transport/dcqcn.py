"""DCQCN rate control (Zhu et al., SIGCOMM 2015).

The receiver-side piece (CNP generation, at most one per 50 µs while CE
marks arrive) lives in :class:`repro.transport.roce.RoceReceiver`; this
module is the sender-side rate machine:

- **cut** on CNP: ``Rt = Rc; Rc = Rc·(1-α/2); α = (1-g)·α + g``;
- **α decay** every 55 µs without a CNP: ``α = (1-g)·α``;
- **increase** events from the same 55 µs timer and a byte counter,
  moving through fast recovery → additive increase → hyper increase
  stages.

One timer drives both periodic steps: the paper's α timer and rate
timer have the same period and are restarted together by every CNP, so
each fire decays α and then takes a time-stage increase.
"""

from __future__ import annotations

from repro.sim.engine import Engine
from repro.sim.units import MICROS
from repro.transport.base import TransportConfig

#: Period of the one timer: α decay, then a time-stage rate increase.
DCQCN_TIMER_NS = 55 * MICROS
#: Additive and hyper increase of the target rate.
DCQCN_RATE_AI_BPS = 40_000_000
DCQCN_RATE_HAI_BPS = 400_000_000
#: Fast-recovery stages before additive increase.
DCQCN_FR_STAGES = 5


class DcqcnRateControl:
    """Per-flow DCQCN rate state machine.

    ``rate_bps`` stays in ``[min_rate_bps, link_rate_bps]``: a cut is
    floored at ``min_rate_bps`` and an increase moves ``rc`` halfway to
    a target that is never below it. The sender paces by it unclamped.
    """

    def __init__(self, engine: Engine, config: TransportConfig):
        self.engine = engine
        self.config = config
        self.rc = float(config.link_rate_bps)  # current rate
        self.rt = float(config.link_rate_bps)  # target rate
        self.rate_bps = config.link_rate_bps  # int(rc): the sender paces every packet by it
        self.alpha = 1.0
        self.time_stage = 0
        self.byte_stage = 0
        self._bytes_since = 0
        self._timer = None
        self._active = False

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        if self._active:
            return
        self._active = True
        self._restart_timer()

    def stop(self) -> None:
        self._active = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

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
        self._restart_timer()

    def on_bytes_sent(self, nbytes: int) -> None:
        """Feed the byte counter; may trigger an increase event."""
        if not self._active:
            return
        self._bytes_since += nbytes
        if self._bytes_since >= self.config.dcqcn_byte_counter:
            self._bytes_since = 0
            self.byte_stage += 1
            self._increase()

    # -- the timer --------------------------------------------------------------------

    def _restart_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
        self._timer = self.engine.schedule_timer(DCQCN_TIMER_NS, self._timer_fire)

    def _timer_fire(self) -> None:
        self._timer = None
        if not self._active:
            return
        self.alpha *= 1 - self.config.dcqcn_g  # α decay, then the time-stage increase
        self.time_stage += 1
        self._increase()
        self._restart_timer()

    # -- increase stages -----------------------------------------------------------

    def _increase(self) -> None:
        f = DCQCN_FR_STAGES
        if self.time_stage < f and self.byte_stage < f:
            pass  # fast recovery: move Rc halfway to Rt, target unchanged
        elif self.time_stage >= f and self.byte_stage >= f:
            self.rt += DCQCN_RATE_HAI_BPS  # hyper increase
        else:
            self.rt += DCQCN_RATE_AI_BPS  # additive increase
        self.rt = min(self.rt, float(self.config.link_rate_bps))
        self.rc = (self.rt + self.rc) / 2
        self.rc = min(self.rc, float(self.config.link_rate_bps))
        self.rate_bps = int(self.rc)
