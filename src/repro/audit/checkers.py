"""Invariant checkers: each inspects live simulation state and returns
a list of violation strings (empty = invariant holds).

Checkers are pure readers — they never mutate the network — so running
them on any cadence cannot change simulation results. Every checker
verifies a conservation or consistency property that the paper's
headline numbers (Table 1, Figs 7/11) silently rely on:

- ``check_buffer_conservation`` — the shared-buffer MMU's ``used``
  equals the sum of queue occupancies and stays within capacity;
- ``check_color_accounting`` — per-queue occupancy and ``red_bytes``
  match the packets actually queued (never negative);
- ``check_pfc_consistency`` — per-ingress PFC counters are non-negative,
  sum to the pool occupancy, and the XOFF/XON state machine agrees with
  the counters and the pause-refresh timers;
- ``check_flow_ledger`` — per-flow byte conservation: retransmitted
  bytes never exceed transmitted bytes, first transmissions never
  exceed the flow size, completed flows transmitted at least their
  size, completion timestamps are ordered, and the per-flow timeout
  counters sum to the run-wide one;
- ``check_policy_state`` — each switch's admission policy holds its
  own internal invariants (adaptive-K clamp, resolved port budgets);
- ``check_clock`` — simulated time is monotone and no queued event
  lies in the past.

The green-drop faithfulness property (§4, Table 1: important packets
are only congestion-dropped on true pool exhaustion) is checked at
drop time by :class:`repro.audit.auditor.Auditor`, which has the
admission context in hand.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.net.packet import Color


def check_buffer_conservation(net) -> List[str]:
    violations = []
    for switch in net.switches:
        buffer = switch.buffer
        queued = sum(q.occupancy for q in switch.queues)
        if buffer.used != queued:
            violations.append(
                f"{switch.name}: SharedBuffer.used={buffer.used} != "
                f"sum of queue occupancies {queued}"
            )
        if buffer.used < 0:
            violations.append(f"{switch.name}: SharedBuffer.used negative ({buffer.used})")
        if buffer.used > buffer.capacity:
            violations.append(
                f"{switch.name}: SharedBuffer overcommitted "
                f"({buffer.used} > capacity {buffer.capacity})"
            )
        if buffer.peak_used > buffer.capacity:
            violations.append(
                f"{switch.name}: peak_used {buffer.peak_used} exceeds "
                f"capacity {buffer.capacity}"
            )
    return violations


def check_color_accounting(net) -> List[str]:
    violations = []
    for switch in net.switches:
        for queue in switch.queues:
            actual_bytes = sum(p.size for p, _ in queue.items)
            actual_red = sum(p.size for p, _ in queue.items if p.color == Color.RED)
            if queue.occupancy != actual_bytes:
                violations.append(
                    f"{switch.name} q{queue.port_no}: occupancy={queue.occupancy} != "
                    f"queued bytes {actual_bytes}"
                )
            if queue.red_bytes != actual_red:
                violations.append(
                    f"{switch.name} q{queue.port_no}: red_bytes={queue.red_bytes} != "
                    f"queued RED bytes {actual_red}"
                )
            if queue.red_bytes < 0:
                violations.append(
                    f"{switch.name} q{queue.port_no}: red_bytes negative "
                    f"({queue.red_bytes})"
                )
            if queue.red_bytes > queue.occupancy:
                violations.append(
                    f"{switch.name} q{queue.port_no}: red_bytes {queue.red_bytes} "
                    f"exceeds occupancy {queue.occupancy}"
                )
    return violations


def check_pfc_consistency(net) -> List[str]:
    violations = []
    now = net.engine.now
    for switch in net.switches:
        pfc = switch.pfc
        if pfc is None:
            continue
        total = 0
        for port_no, count in enumerate(pfc.ingress_bytes):
            total += count
            if count < 0:
                violations.append(
                    f"{switch.name}: PFC ingress_bytes[{port_no}] negative ({count})"
                )
        if total != switch.buffer.used:
            violations.append(
                f"{switch.name}: sum of PFC ingress_bytes {total} != "
                f"SharedBuffer.used {switch.buffer.used}"
            )
        for port_no, asserted in enumerate(pfc.asserted):
            count = pfc.ingress_bytes[port_no]
            if asserted:
                if count <= pfc.xon:
                    violations.append(
                        f"{switch.name}: PFC asserted on port {port_no} with "
                        f"ingress_bytes {count} <= XON {pfc.xon}"
                    )
                refresh = pfc._refresh_events.get(port_no)
                if refresh is None or getattr(refresh, "cancelled", False):
                    violations.append(
                        f"{switch.name}: PFC asserted on port {port_no} with no "
                        f"live pause-refresh timer"
                    )
            elif count >= pfc.xoff:
                violations.append(
                    f"{switch.name}: PFC not asserted on port {port_no} with "
                    f"ingress_bytes {count} >= XOFF {pfc.xoff}"
                )
    # Paused-port sanity on every device: an active pause must have a
    # live expiry timer and a start time in the past.
    for device in list(net.switches) + list(net.hosts):
        for port in device.ports:
            if not port.paused:
                continue
            if port._pause_timer is None or port._pause_timer.cancelled:
                violations.append(
                    f"{device.name} port {port.port_no}: paused with no live "
                    f"expiry timer"
                )
            if port._pause_started > now:
                violations.append(
                    f"{device.name} port {port.port_no}: pause started at "
                    f"{port._pause_started} > now {now}"
                )
    return violations


def check_flow_ledger(net) -> List[str]:
    violations = []
    stats = net.stats
    # Retired records (service runs prune completed flows for O(1)
    # stats memory) fold their timeout counts into this aggregate.
    total_timeouts = getattr(stats, "retired_timeouts", 0)
    incomplete: Dict[Optional[str], int] = {None: 0}  # group (None: all) -> by scan
    for record in stats.flows.values():
        total_timeouts += record.timeouts
        label = f"flow {record.flow_id}"
        if record.end_rx_ns is None:
            incomplete[None] += 1
            incomplete[record.group] = incomplete.get(record.group, 0) + 1
        else:
            incomplete.setdefault(record.group, 0)
        if record.tx_bytes < 0 or record.retx_bytes < 0:
            violations.append(
                f"{label}: negative byte counter (tx={record.tx_bytes}, "
                f"retx={record.retx_bytes})"
            )
        if record.retx_bytes > record.tx_bytes:
            violations.append(
                f"{label}: retx_bytes {record.retx_bytes} exceeds "
                f"tx_bytes {record.tx_bytes}"
            )
        if record.tx_bytes - record.retx_bytes > record.size:
            violations.append(
                f"{label}: first-transmission bytes "
                f"{record.tx_bytes - record.retx_bytes} exceed flow size {record.size}"
            )
        if record.timeouts < 0:
            violations.append(f"{label}: negative timeout count {record.timeouts}")
        if record.end_rx_ns is not None:
            # On a sharded run the sender of a cross-shard flow lives in
            # another worker: the local record only sees the receive
            # side, so the sent-at-least-size check cannot apply here.
            if (record.tx_bytes < record.size
                    and record.flow_id not in stats.foreign_src_flows):
                violations.append(
                    f"{label}: completed with tx_bytes {record.tx_bytes} < "
                    f"size {record.size}"
                )
            if record.end_rx_ns < record.start_ns:
                violations.append(
                    f"{label}: end_rx_ns {record.end_rx_ns} before "
                    f"start_ns {record.start_ns}"
                )
        if (
            record.end_ack_ns is not None
            and record.end_rx_ns is not None
            and record.end_ack_ns < record.end_rx_ns
        ):
            violations.append(
                f"{label}: end_ack_ns {record.end_ack_ns} before "
                f"end_rx_ns {record.end_rx_ns}"
            )
    # NetStats counts liveness where it changes instead of scanning:
    # incomplete == sum over groups of (live - completed).
    for group, scanned in incomplete.items():
        if stats.incomplete_flows(group) != scanned:
            violations.append(
                f"flow ledger: incomplete_flows({group!r}) counts "
                f"{stats.incomplete_flows(group)}, a scan of the records {scanned}"
            )
    if total_timeouts != stats.timeouts:
        violations.append(
            f"flow ledger: per-flow timeouts sum {total_timeouts} != "
            f"NetStats.timeouts {stats.timeouts}"
        )
    return violations


def check_policy_state(net) -> List[str]:
    """Each switch's admission policy reports its own violated
    invariants (e.g. adaptive-K outside its clamp window, BShare with
    unresolved port budgets)."""
    violations = []
    for switch in net.switches:
        policy = getattr(switch, "policy", None)
        if policy is None:
            continue
        violations.extend(f"{switch.name}: {v}" for v in policy.invariants())
    return violations


def check_clock(net, last_now: Optional[int] = None) -> List[str]:
    violations = []
    engine = net.engine
    if last_now is not None and engine.now < last_now:
        violations.append(
            f"clock moved backwards: now={engine.now} < previously observed {last_now}"
        )
    next_time = engine.peek_time()
    if next_time is not None and next_time < engine.now:
        violations.append(
            f"event queued in the past: t={next_time} < now={engine.now}"
        )
    return violations


#: End-of-run / cadence checker suite, in report order.
ALL_CHECKERS = (
    check_buffer_conservation,
    check_color_accounting,
    check_pfc_consistency,
    check_flow_ledger,
    check_policy_state,
)
