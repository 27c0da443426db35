"""The runtime invariant auditor.

An :class:`Auditor` attaches to one :class:`repro.net.topology.Network`
and turns "tests pass" into "invariants machine-checked on every
simulated nanosecond":

- **hot-path hooks** — switches and the PFC engine report every packet
  enqueue/dequeue/drop and PAUSE/RESUME into a ring-buffer trace;
  transports report RTO fires. Hooks are ``None``-guarded attributes,
  so an un-audited run pays nothing;
- **drop-time faithfulness check** — the paper's §4 property: a green
  (important) packet must never be dropped by the color check, on a
  lossless (PFC) switch may only be dropped on true pool exhaustion,
  and on a lossy switch every drop must be justified by the switch's
  admission policy (re-evaluated at the instant it happened);
- **cadence checks** — a self-rescheduling engine event runs the full
  checker suite (buffer conservation, color accounting, PFC
  consistency, flow ledger, clock monotonicity) every ``interval_ns``
  of simulated time;
- **end-of-run check** — :meth:`final_check` runs the same suite once
  more after the drain.

Any violation raises :class:`~repro.audit.ring.AuditError` carrying the
violations plus the retained event trace (JSON-dumpable; written to
``AuditConfig.dump_path`` when set).

Usage::

    net = build_network(config)
    auditor = Auditor(net)
    auditor.install()
    ... run ...
    auditor.final_check()

or simply ``ScenarioConfig(audit=True)`` / ``tlt-experiment --audit``
(``repro.experiments.scenarios.attach_auditor`` / ``finish_run``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.audit.checkers import ALL_CHECKERS, check_clock
from repro.audit.ring import AuditError, EventRing
from repro.net.packet import Color
from repro.sim.units import MICROS


@dataclass
class AuditConfig:
    """Auditor knobs."""

    #: Simulated time between full checker-suite runs.
    interval_ns: int = 100 * MICROS
    #: Number of trace events retained for post-mortem dumps.
    ring_size: int = 4096
    #: When set, an AuditError also writes its JSON report here.
    dump_path: Optional[str] = None


class Auditor:
    """Runtime invariant auditing + debug tracing for one network."""

    def __init__(self, net, config: Optional[AuditConfig] = None):
        self.net = net
        self.config = config or AuditConfig()
        self.ring = EventRing(self.config.ring_size)
        self.checks_run = 0
        self._last_now: Optional[int] = None
        self._tick_event = None
        self._installed = False

    # -- attachment ------------------------------------------------------------

    def install(self) -> "Auditor":
        """Hook into the network's switches, PFC engines, transports
        (via ``NetStats.audit_ring``) and engine; idempotent."""
        if self._installed:
            return self
        self._installed = True
        for switch in self.net.switches:
            switch.set_auditor(self)
            if switch.pfc is not None:
                switch.pfc.audit_ring = self.ring
        self.net.stats.audit_ring = self.ring
        self._tick_event = self.net.engine.schedule(self.config.interval_ns, self._tick)
        return self

    def detach(self) -> None:
        """Remove every hook (the trace ring is kept for inspection)."""
        if not self._installed:
            return
        self._installed = False
        for switch in self.net.switches:
            if switch.audit is self:
                switch.set_auditor(None)
            if switch.pfc is not None and switch.pfc.audit_ring is self.ring:
                switch.pfc.audit_ring = None
        if self.net.stats.audit_ring is self.ring:
            self.net.stats.audit_ring = None
        if self._tick_event is not None:
            self._tick_event.cancel()
            self._tick_event = None

    # -- hot-path hooks (called by Switch) --------------------------------------

    def on_enqueue(self, switch, packet, egress_no: int) -> None:
        self.ring.record(
            "enqueue", time_ns=self.net.engine.now, device=switch.name,
            flow=packet.flow_id, seq=packet.seq, size=packet.size,
            color=packet.color.name, port=egress_no,
        )
        # Dead-egress invariant: the fault layer withdraws a down port
        # from the FIB at link_down time and blackholes unroutable
        # destinations, so no selector — static, flowlet or weighted —
        # may ever steer a packet onto a down port (the overlapping-flap
        # resurrection bug is exactly this violation).
        if switch.ports[egress_no].down:
            self._raise([
                f"{switch.name}: flow {packet.flow_id} (seq {packet.seq}) "
                f"enqueued on down port {egress_no}"
            ])

    def on_dequeue(self, switch, packet, port_no: int) -> None:
        self.ring.record(
            "dequeue", time_ns=self.net.engine.now, device=switch.name,
            flow=packet.flow_id, seq=packet.seq, size=packet.size,
            color=packet.color.name, port=port_no,
        )

    def on_drop(self, switch, packet, queue, reason: str,
                port_occupancy: Optional[int] = None) -> None:
        self.ring.record(
            "drop", time_ns=self.net.engine.now, device=switch.name,
            flow=packet.flow_id, seq=packet.seq, size=packet.size,
            color=packet.color.name, port=queue.port_no, info=reason,
        )
        violations = self._check_drop(switch, packet, queue, reason, port_occupancy)
        if violations:
            self._raise(violations)

    def _check_drop(self, switch, packet, queue, reason: str,
                    port_occupancy: Optional[int]) -> List[str]:
        """Green-drop faithfulness (§4, Table 1), verified in-context.

        The admission math is whatever :class:`AdmissionPolicy` the
        switch runs (Choudhury–Hahne by default), so justification is
        checked by re-evaluating ``switch.policy`` — nothing changed
        state between the decision and this hook, so the re-evaluation
        reproduces it exactly.
        """
        buffer = switch.buffer
        policy = switch.policy
        size = packet.size
        violations: List[str] = []
        if reason == "color":
            if packet.color == Color.GREEN:
                violations.append(
                    f"{switch.name}: green packet (flow {packet.flow_id}, seq "
                    f"{packet.seq}) dropped by the color-aware check"
                )
            else:
                k = policy.color_threshold(queue)
                if k is None or queue.red_bytes + size <= k:
                    violations.append(
                        f"{switch.name}: unjustified color drop of flow "
                        f"{packet.flow_id} (red {queue.red_bytes} + {size} "
                        f"within K {k})"
                    )
                # §5.3 incremental deployment: legacy traffic in a class
                # outside color_classes is never red-dropped (the class
                # is clamped the way Switch._receive clamps it).
                classes = switch.config.color_classes
                nclasses = len(switch._port_queues[queue.port_no])
                tclass = packet.tclass if 0 <= packet.tclass < nclasses else 0
                if classes is not None and tclass not in classes:
                    violations.append(
                        f"{switch.name}: color drop of flow {packet.flow_id} "
                        f"in traffic class {tclass}, outside color_classes "
                        f"{classes}"
                    )
        if reason == "pool" and buffer.used + size <= buffer.capacity:
            violations.append(
                f"{switch.name}: pool-exhaustion drop of flow {packet.flow_id} "
                f"with {buffer.free} bytes free (size {size})"
            )
        if reason == "dynamic":
            if switch.pfc is not None:
                violations.append(
                    f"{switch.name}: dynamic-threshold drop on a lossless (PFC) "
                    f"switch — only true pool exhaustion may drop"
                )
            elif (
                port_occupancy is not None
                and policy.admit(queue, port_occupancy, size, False) is None
            ):
                violations.append(
                    f"{switch.name}: unjustified dynamic drop of flow "
                    f"{packet.flow_id} (policy {policy.name} admits "
                    f"{size} bytes at port occupancy {port_occupancy})"
                )
        return violations

    # -- checking ---------------------------------------------------------------

    def run_checkers(self) -> List[str]:
        """Run the full suite once; returns violations without raising."""
        self.checks_run += 1
        violations = check_clock(self.net, self._last_now)
        self._last_now = self.net.engine.now
        for checker in ALL_CHECKERS:
            violations.extend(checker(self.net))
        return violations

    def check_now(self) -> None:
        """Run the full suite; raise :class:`AuditError` on violation."""
        violations = self.run_checkers()
        if violations:
            self._raise(violations)

    def final_check(self) -> None:
        """End-of-run check; call after the engine drained."""
        self.ring.record("audit_final", time_ns=self.net.engine.now)
        self.check_now()

    def _tick(self) -> None:
        self._tick_event = None
        self.ring.record("audit_tick", time_ns=self.net.engine.now)
        self.check_now()
        # Keep riding along while the simulation has live events;
        # stop when it drains so the audit never keeps a run alive.
        if self.net.engine.peek_time() is not None:
            self._tick_event = self.net.engine.schedule(
                self.config.interval_ns, self._tick
            )

    def _raise(self, violations: List[str]) -> None:
        error = AuditError(violations, self.ring.to_list(), self.net.engine.now)
        if self.config.dump_path:
            try:
                error.dump(self.config.dump_path)
            except OSError:  # an unwritable dump path must not mask the violation
                pass
        raise error
