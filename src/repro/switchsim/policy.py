"""Pluggable switch admission policies (the MMU drop/admit decision).

The paper evaluates TLT on one fixed MMU configuration: Choudhury–Hahne
dynamic thresholds for admission plus a static color threshold K for
red (unimportant) drops. ROADMAP item 3 asks the obvious follow-up —
is that still the right call against the buffer-sharing literature? —
so the decision is now an :class:`AdmissionPolicy` chosen per switch
via ``SwitchConfig.admission``:

- ``"ch-static-k"`` (:class:`ChoudhuryHahne`) — the paper's default.
  With ``admission=None`` the switch's one admission pipeline keeps
  this decision open-coded; with the explicit name it asks this object
  for the same math (fingerprint-identical, pinned by tests).
- ``"bshare"`` (:class:`BShare`) — queueing-delay-driven sharing: a
  port may buffer at most ``rate * target_delay`` bytes, so admission
  bounds worst-case queueing delay rather than buffer share.
- ``"fairq"`` (:class:`FairQ`) — fair allocation: the pool is split
  evenly across currently backlogged ports.
- ``"tiny-buffer"`` (:class:`TinyBuffer`) — a small static per-port
  cap (the tiny-buffer regime: a few BDPs, no dynamic sharing).
- ``"adaptive-k"`` (:class:`AdaptiveK`) — CH admission plus a
  controller on the engine's timer wheel that retunes K from live
  per-queue occupancy (the same state the telemetry samplers export).

A policy supplies only the *decision* — K and admit/drop. The buffer
and queue accounting, ECN marking and PFC after admission are the
switch's, shared by every policy; that is sound because :meth:`admit`
fixes the pool-exhaustion check for all of them (do not override it).

Contract: ``admit`` is called *before* any state changes and must not
mutate anything — the auditor re-evaluates it at drop time to verify
every congestion drop was justified (§4 green-drop faithfulness, now
checked against whichever policy made the call). Policies are bound to
their switch at construction (one instance per switch — ``admission``
is a declarative spec precisely so a shared ``SwitchConfig`` never
shares mutable policy state, the bug class the fabric-global ECN RNG
had).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Type

from repro.spec import Named, PositiveInt, named
from repro.switchsim.queue import EgressQueue


class AdmissionPolicy:
    """Decide admit/drop for one arriving packet on one switch.

    Subclasses override :meth:`_admit_lossy` (and optionally
    :meth:`color_threshold`, :meth:`on_finalize`, :meth:`invariants`).
    The pool-exhaustion check and the lossless (PFC) rule — only true
    pool exhaustion may drop — are fixed in :meth:`admit` for every
    policy: they are what makes a fabric lossless, not a tunable.
    """

    #: Registry name; also stamped on telemetry rows.
    name = "policy"
    #: Whether :meth:`on_finalize` arms a controller whose ticks are
    #: engine events (a sharded run refuses such a policy).
    arms_controller = False

    def __init__(self) -> None:
        self.switch = None
        self.buffer = None
        self.config = None

    # -- lifecycle ---------------------------------------------------------------

    def bind(self, switch) -> "AdmissionPolicy":
        """Attach to ``switch`` (called once, at switch construction)."""
        self.switch = switch
        self.buffer = switch.buffer
        self.config = switch.config
        return self

    def on_finalize(self) -> None:
        """Hook called from ``Switch.finalize()`` once all ports exist."""

    # -- the decision ------------------------------------------------------------

    def color_threshold(self, queue: EgressQueue) -> Optional[int]:
        """Threshold K for red drops on ``queue`` (None disables)."""
        return self.config.color_threshold_bytes

    def admit(self, queue: EgressQueue, port_occupancy: int, size: int,
              lossless: bool) -> Optional[str]:
        """Admit ``size`` bytes to ``queue``, or return a drop reason.

        ``port_occupancy`` is the total buffered bytes of the target
        port across traffic classes. Returns ``None`` (admit),
        ``"pool"`` (shared pool exhausted) or ``"dynamic"`` (the
        policy's lossy admission limit). Must not mutate any state.
        """
        buf = self.buffer
        if buf.used + size > buf.capacity:
            return "pool"
        if lossless:
            return None
        return self._admit_lossy(queue, port_occupancy, size)

    def _admit_lossy(self, queue: EgressQueue, port_occupancy: int,
                     size: int) -> Optional[str]:
        return None

    # -- introspection -----------------------------------------------------------

    def invariants(self) -> List[str]:
        """Violated internal invariants (checked by the auditor suite)."""
        return []

    def describe(self) -> Dict:
        """One flat dict of live policy state (telemetry ``policy`` stream)."""
        return {"policy": self.name, "k": self.config.color_threshold_bytes}


class ChoudhuryHahne(AdmissionPolicy):
    """The paper's MMU: dynamic threshold ``alpha * (B - used)``.

    Byte-for-byte the math of the switch's open-coded default decision —
    the fingerprint-parity tests hold the two together.
    """

    name = "ch-static-k"

    def _admit_lossy(self, queue: EgressQueue, port_occupancy: int,
                     size: int) -> Optional[str]:
        buf = self.buffer
        if port_occupancy >= buf.alpha * (buf.capacity - buf.used):
            return "dynamic"
        return None


class BShare(AdmissionPolicy):
    """Queueing-delay-driven sharing: cap each port's backlog at the
    bytes its line rate drains in ``target_delay_ns``.

    Admission then bounds worst-case per-hop queueing delay directly
    (BShare's premise) instead of bounding the buffer *share* like
    Choudhury–Hahne. Per-port byte budgets are resolved once at
    finalize time from the actual port rates.
    """

    name = "bshare"

    def __init__(self, target_delay_ns: PositiveInt = 100_000) -> None:
        super().__init__()
        self.target_delay_ns = target_delay_ns
        self._port_limit: List[int] = []

    def on_finalize(self) -> None:
        self._port_limit = [
            max(1, port.rate_bps * self.target_delay_ns // 8 // 1_000_000_000)
            for port in self.switch.ports
        ]

    def _admit_lossy(self, queue: EgressQueue, port_occupancy: int,
                     size: int) -> Optional[str]:
        if port_occupancy + size > self._port_limit[queue.port_no]:
            return "dynamic"
        return None

    def invariants(self) -> List[str]:
        if self.switch.ports and not self._port_limit:
            return [f"{self.name}: finalize never ran (no port budgets)"]
        return [
            f"{self.name}: non-positive byte budget on port {no}"
            for no, limit in enumerate(self._port_limit) if limit <= 0
        ]

class FairQ(AdmissionPolicy):
    """Fair allocation: split the pool evenly over backlogged ports.

    A port may buffer at most ``capacity / max(1, busy_ports)`` bytes,
    counting the target port as busy — the fair-share discipline of the
    FairQ line of work, applied to buffer admission. The busy-port scan
    is O(ports); this is a lab policy, not the default decision.
    """

    name = "fairq"

    def _admit_lossy(self, queue: EgressQueue, port_occupancy: int,
                     size: int) -> Optional[str]:
        busy = 1 if port_occupancy == 0 else 0  # the target port itself
        for port_queues in self.switch._port_queues:
            for q in port_queues:
                if q.occupancy:
                    busy += 1
                    break
        if port_occupancy + size > self.buffer.capacity // max(1, busy):
            return "dynamic"
        return None


class TinyBuffer(AdmissionPolicy):
    """Tiny-buffer regime: a small static per-port cap, no sharing.

    Models a switch provisioned with a few BDPs per port (the
    tiny-buffer argument: with paced, desynchronized traffic, deep
    buffers only add delay). Green packets *can* be congestion-dropped
    at the cap on a lossy fabric — the policy-aware auditor accepts
    that as a justified dynamic drop, and the sweep shows what it
    costs TLT.
    """

    name = "tiny-buffer"

    def __init__(self, cap_bytes: PositiveInt = 40_000) -> None:
        super().__init__()
        self.cap_bytes = cap_bytes

    def _admit_lossy(self, queue: EgressQueue, port_occupancy: int,
                     size: int) -> Optional[str]:
        if port_occupancy + size > self.cap_bytes:
            return "dynamic"
        return None


class AdaptiveK(ChoudhuryHahne):
    """CH admission plus a timer-wheel controller retuning K live.

    Every ``interval_ns`` of sim time the controller reads the same
    per-queue occupancy the telemetry samplers export and nudges the
    color threshold: when green backlog builds past
    ``green_target_fraction * K0`` red packets are admitted too
    greedily, so K is cut (×``decrease``); when red occupancy rides
    close to K with most of the pool idle, K is raised (×``increase``).
    K stays clamped to ``[K0/4, K0*4]``. The controller arms in
    ``Switch.finalize()`` and re-arms only while the run has
    incomplete flows, so it never keeps an idle engine alive.
    """

    name = "adaptive-k"
    arms_controller = True

    def __init__(self, interval_ns: PositiveInt = 100_000, increase: float = 1.25,
                 decrease: float = 0.8, green_target_fraction: float = 0.25) -> None:
        super().__init__()
        self.interval_ns = interval_ns
        self.increase = increase
        self.decrease = decrease
        self.green_target_fraction = green_target_fraction
        self.k: Optional[int] = None
        self.k0: Optional[int] = None
        self.k_lo: Optional[int] = None
        self.k_hi: Optional[int] = None
        self.adjustments = 0
        self._sampler = None

    def bind(self, switch) -> "AdmissionPolicy":
        super().bind(switch)
        k0 = self.config.color_threshold_bytes
        if k0 is not None:
            self.k = self.k0 = k0
            self.k_lo = max(1, k0 // 4)
            self.k_hi = k0 * 4
        return self

    def color_threshold(self, queue: EgressQueue) -> Optional[int]:
        return self.k

    def on_finalize(self) -> None:
        if self.k is None or self._sampler is not None:
            return
        # Lazy import: switchsim must stay importable without telemetry.
        from repro.telemetry.samplers import PolicyController

        # Liveness mirrors the scenario samplers: flow records exist
        # from schedule time, so the controller rides along exactly
        # while the run has work and stops itself on the first tick
        # after the last flow completes.
        self._sampler = PolicyController(self, self.switch.engine, self.interval_ns,
                                         active=self.switch.stats.incomplete_flows)

    def _retune(self) -> None:
        green_peak = 0
        red_peak = 0
        for queue in self.switch.queues:
            occ = queue.occupancy
            if not occ:
                continue
            red = queue.red_bytes
            if occ - red > green_peak:
                green_peak = occ - red
            if red > red_peak:
                red_peak = red
        k = self.k
        buf = self.buffer
        if green_peak > self.green_target_fraction * self.k0:
            new_k = max(self.k_lo, int(k * self.decrease))
        elif red_peak >= 0.9 * k and buf.used < buf.capacity // 2:
            new_k = min(self.k_hi, int(k * self.increase))
        else:
            return
        if new_k != k:
            self.k = new_k
            self.adjustments += 1

    def invariants(self) -> List[str]:
        if self.k is None:
            return []
        violations = []
        if not self.k_lo <= self.k <= self.k_hi:
            violations.append(
                f"{self.name}: K={self.k} outside clamp "
                f"[{self.k_lo}, {self.k_hi}]"
            )
        return violations

    def describe(self) -> Dict:
        return {"policy": self.name, "k": self.k}


#: Registry of selectable policies, by spec name.
POLICIES: Dict[str, Type[AdmissionPolicy]] = {
    ChoudhuryHahne.name: ChoudhuryHahne,
    BShare.name: BShare,
    FairQ.name: FairQ,
    TinyBuffer.name: TinyBuffer,
    AdaptiveK.name: AdaptiveK,
}


def admission_spec(spec) -> Optional[Named]:
    """The parsed admission spec (``None``: the open-coded default)."""
    return named("admission", spec, POLICIES, "admission policy")


def make_policy(spec) -> AdmissionPolicy:
    """A fresh policy for one switch from its (parsed) spec; for ``None``
    the auditor's reference, a :class:`ChoudhuryHahne`."""
    parsed = admission_spec(spec)
    return ChoudhuryHahne() if parsed is None else parsed.build()
