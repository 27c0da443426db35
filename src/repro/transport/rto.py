"""Linux-style retransmission timeout estimation.

``RTO = SRTT + max(G, 4 * RTTVAR)``, clamped to ``[rto_min, rto_max]``,
with SRTT/RTTVAR EWMAs per RFC 6298 (gains 1/8 and 1/4) and exponential
backoff on consecutive timeouts. All arithmetic is integer nanoseconds.
"""

from __future__ import annotations

from repro.sim.units import MICROS, MILLIS


def _div_rtz(value: int, divisor: int) -> int:
    """Integer division rounding toward zero (RFC 6298 EWMA steps).

    Python's ``//`` floors toward -inf, so a negative EWMA delta like
    ``-1 // 8 == -1`` would systematically drag SRTT/RTTVAR low.
    """
    quotient = abs(value) // divisor
    return quotient if value >= 0 else -quotient


class RtoEstimator:
    """Tracks SRTT/RTTVAR and produces the current RTO.

    ``base_rto`` (the RTO before backoff) and ``current`` (with
    exponential backoff) are plain attributes, rewritten where their
    inputs change (:meth:`on_rtt_sample`, :meth:`backoff`): senders
    read them on every ACK.
    """

    __slots__ = ("rto_min", "rto_max", "granularity", "srtt", "rttvar", "backoff_count",
                 "base_rto", "current", "_base_max")

    def __init__(
        self,
        rto_min: int = 4 * MILLIS,
        rto_max: int = 1_000 * MILLIS,
        granularity: int = 10 * MICROS,
    ):
        if rto_min <= 0 or rto_max < rto_min:
            raise ValueError("invalid RTO bounds")
        self.rto_min = rto_min
        self.rto_max = rto_max
        self.granularity = granularity
        self.srtt = 0  # 0 means "no sample yet"
        self.rttvar = 0
        self.backoff_count = 0
        self._base_max = rto_max  # base_rto is clamped to [rto_min, _base_max]
        self.base_rto = self.current = rto_min  # conservative default before any sample

    def on_rtt_sample(self, rtt_ns: int) -> None:
        """Feed one RTT measurement (Karn-safe samples only)."""
        if rtt_ns <= 0:
            rtt_ns = 1
        srtt = self.srtt
        if srtt == 0:
            self.srtt = rtt_ns
            self.rttvar = rtt_ns // 2
        else:
            # _div_rtz, open-coded: this runs once per ACK-borne sample.
            delta = srtt - rtt_ns
            if delta < 0:
                delta = -delta
            d = delta - self.rttvar
            self.rttvar += d // 4 if d >= 0 else -(-d // 4)
            d = rtt_ns - srtt
            self.srtt += d // 8 if d >= 0 else -(-d // 8)
        self.backoff_count = 0
        rto = 4 * self.rttvar
        if rto < self.granularity:
            rto = self.granularity
        rto += self.srtt
        if rto < self.rto_min:
            rto = self.rto_min
        elif rto > self._base_max:
            rto = self._base_max
        self.base_rto = self.current = rto

    def backoff(self) -> None:
        """Double the RTO after a timeout (capped by rto_max)."""
        if (self.base_rto << self.backoff_count) < self.rto_max:
            self.backoff_count += 1
            self.current = min(self.base_rto << self.backoff_count, self.rto_max)


class FixedRto(RtoEstimator):
    """A static RTO (the 'aggressive fixed timeout' strawman of §2.2).

    RTT samples are accepted (so transports can still report SRTT) but
    never change the timeout; backoff still applies.
    """

    __slots__ = ()

    def __init__(self, rto_ns: int, rto_max: int = 1_000 * MILLIS):
        super().__init__(rto_min=rto_ns, rto_max=rto_max)
        self._base_max = rto_ns  # clamped to [rto_ns, rto_ns]
