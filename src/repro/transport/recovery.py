"""Host loss recovery: the run's ``recovery`` spec and the RTO estimator.

Every sender does SACK, dup-ACK early retransmit and RACK-style aging of
retransmissions. The spec (docs/API.md, "Specs") chooses the rest: None
(the transport's default RTO), ``rto`` (adaptive), ``tlp`` (plus the tail
loss probe; both tcp-family only) or ``fixed-rto`` (§2.2's static RTO).
:func:`resolve_recovery` makes the one :class:`Recovery` all flows of a
run share (in ``resolve_config``).

``RTO = SRTT + max(G, 4 * RTTVAR)`` in integer nanoseconds, clamped to
``[rto_min, rto_max]``, SRTT/RTTVAR per RFC 6298 (gains 1/8 and 1/4),
with exponential backoff on consecutive timeouts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated, Optional

from repro.sim.units import MICROS, MILLIS
from repro.spec import Check, named

DUPACK_THRESHOLD = 1  # duplicate ACKs that mark the head lost (early retransmit)
TLP_PTO_MIN_NS = 10 * MICROS  # floor of the probe timeout
RTO_MAX_NS = 1_000 * MILLIS  # ceiling of the backed-off RTO
RTO_MIN_NS = 4 * MILLIS  # the TCP family's default RTO_min
#: Each RoCE variant's static RTO (IRN: its recommended RTO_high).
ROCE_RTO_NS = {"dcqcn": RTO_MIN_NS, "dcqcn-sack": RTO_MIN_NS, "irn": 1_930_000, "hpcc": RTO_MIN_NS}


class RtoEstimator:
    """Tracks SRTT/RTTVAR and produces the current RTO.

    ``base_rto`` (the RTO before backoff) and ``current`` (with
    exponential backoff) are plain attributes, rewritten where their
    inputs change (:meth:`on_rtt_sample`, :meth:`backoff`): senders
    read them on every ACK. ``base_rto`` is clamped to ``[rto_min,
    base_max]``: ``base_max == rto_min`` is a static RTO.
    """

    __slots__ = ("rto_min", "rto_max", "granularity", "srtt", "rttvar", "backoff_count",
                 "base_rto", "current", "_base_max")

    def __init__(self, rto_min: int = RTO_MIN_NS, rto_max: int = RTO_MAX_NS,
                 granularity: int = 10 * MICROS, base_max: Optional[int] = None):
        base_max = rto_max if base_max is None else base_max
        if rto_min <= 0 or not rto_min <= base_max <= rto_max:
            raise ValueError("invalid RTO bounds")
        self.rto_min = rto_min
        self.rto_max = rto_max
        self.granularity = granularity
        self.srtt = 0  # 0 means "no sample yet"
        self.rttvar = 0
        self.backoff_count = 0
        self._base_max = base_max
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
            # Rounded toward zero: ``-1 // 8 == -1`` would drag SRTT/RTTVAR low.
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


@dataclass(frozen=True)
class Recovery:
    """A resolved recovery spec, for the flows of ``transport``."""

    transport: str
    rto_ns: int  # RTO_min of the adaptive RTO; the RTO itself when fixed
    fixed: bool = False
    tlp: bool = False

    def estimator(self) -> RtoEstimator:  # each flow's own
        return RtoEstimator(self.rto_ns, base_max=self.rto_ns if self.fixed else None)


#: The RTO of a spec: positive, and within the backed-off ceiling.
RtoNs = Annotated[int, Check(f"an int in [1, {RTO_MAX_NS}]", lambda v: 0 < v <= RTO_MAX_NS)]


def _rto(transport: str, min_ns: RtoNs = RTO_MIN_NS) -> Recovery:
    return Recovery(transport, min_ns)


def _tlp(transport: str) -> Recovery:
    return Recovery(transport, RTO_MIN_NS, tlp=True)


def _fixed_rto(transport: str, rto_ns: RtoNs) -> Recovery:
    return Recovery(transport, rto_ns, fixed=True)


#: The registry: spec name -> ``build(transport, **params)``.
RECOVERIES = {"rto": _rto, "tlp": _tlp, "fixed-rto": _fixed_rto}


def resolve_recovery(spec, transport: str) -> Recovery:
    """The :class:`Recovery` that ``spec`` selects for ``transport``."""
    parsed = named("recovery", spec, RECOVERIES, skip=("transport",))
    if parsed is None:
        roce_rto = ROCE_RTO_NS.get(transport)
        return Recovery(transport, roce_rto or RTO_MIN_NS, fixed=roce_rto is not None)
    if parsed.name in ("rto", "tlp") and transport in ROCE_RTO_NS:
        raise ValueError(f"recovery {spec!r} is tcp-family only: the {transport!r} sender "
                         f"runs a fixed RTO and no TLP")
    return parsed.build(transport)
