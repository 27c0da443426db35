"""The reliable-delivery core both transport families run on.

:class:`ReliableSender` is selective repeat with SACK, dup-ACK early
retransmit, RACK-style aging of retransmissions and an RTO backstop,
written once. It is a base class — not a helper object — so the state
the per-ACK paths touch (``pipe``, ``lost_queue``, ``entries``) stays
one attribute hop from the family code that reads it.

Units. The scoreboard is a list of :class:`Entry` ``[start, end)`` in
*sequence units* with a fixed ``stride``: bytes and ``stride = mss``
for the byte-stream family, PSNs and ``stride = 1`` for RoCE. Entries
are appended in order as units are first transmitted, so
``entries[i].start == i * stride`` and ``len(entries)`` bounds what has
ever been sent. ``weight`` is what an entry adds to ``pipe`` while in
flight (payload bytes for byte streams, payload + header for RoCE).

What it owns: ``entries``/``_head``, ``pipe``, the lost queue, the
retransmitted-in-flight set, ``_highest_sacked``/``_scan_hint``, the
RTO estimator and its timer. What it exposes: cumulative-ACK advance
(:meth:`_ack_to`), :meth:`_apply_sack`, :meth:`_detect_losses`,
:meth:`_mark_lost` / :meth:`_mark_all_lost` /
:meth:`mark_lost_sent_before`, :meth:`_next_lost` / :meth:`_pop_lost`,
:meth:`_first_unacked`, :meth:`_record_tx`, and the timer's
arm/restart/cancel/fire. The marking operations return the entries
they newly marked.

What families plug in: ACK parsing (``snd_una``, ``dupacks``), packet
construction and marking (``_transmit``), pacing and windows,
congestion control, and the two reactions the core calls with its
results — :meth:`_on_loss_detected` (fast recovery / a retransmission
round) and :meth:`_on_timeout` (window collapse / go-back-N rewind).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, List, Optional

from repro.transport.recovery import DUPACK_THRESHOLD

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import Host
    from repro.stats.collector import NetStats
    from repro.transport.base import FlowSpec, TransportConfig


class Entry:
    """Scoreboard entry for one transmitted unit ``[start, end)``."""

    __slots__ = (
        "start",
        "end",
        "weight",
        "acked",
        "sacked",
        "lost",
        "in_pipe",
        "retx_count",
        "first_tx_ns",
        "last_tx_ns",
        "delivered",
    )

    def __init__(self, start: int, end: int, weight: int):
        self.start = start
        self.end = end
        self.weight = weight
        self.acked = False
        self.sacked = False
        self.lost = False
        self.in_pipe = False
        self.retx_count = 0
        self.first_tx_ns = -1
        self.last_tx_ns = -1
        self.delivered = False  # delivery-time sample recorded

    def __repr__(self) -> str:  # pragma: no cover
        flags = "".join(
            c
            for c, f in (
                ("A", self.acked),
                ("S", self.sacked),
                ("L", self.lost),
                ("P", self.in_pipe),
            )
            if f
        )
        return f"Entry[{self.start},{self.end}){flags}"


class ReliableSender:
    """Scoreboard, loss detector and retransmit timer of one flow.

    Subclasses provide ``start()``, ``is_all_acked()``,
    ``_transmit(entry, clock_mark=False)`` and the two reactions
    :meth:`_on_loss_detected` and :meth:`_on_timeout`.
    """

    def __init__(
        self,
        host: "Host",
        spec: "FlowSpec",
        config: "TransportConfig",
        stats: "NetStats",
        stride: int,
    ):
        self.host = host
        self.spec = spec
        self.config = config
        self.stats = stats
        self.engine = host.engine
        self.record = stats.new_flow(
            spec.flow_id, spec.src, spec.dst, spec.size, spec.start_ns, spec.group
        )
        # One sample per ACK and per delivered entry: straight to the reservoir.
        self._add_rtt_sample = stats.rtt_samples(spec.group).add
        self._add_delivery_sample = stats.delivery_samples.add

        self.stride = stride
        self.entries: List[Entry] = []
        self._head = 0  # index of the first entry not cumulatively acked
        self.pipe = 0
        self.dupacks = 0  # counted by the family's ACK parsing
        self.lost_queue: Deque[Entry] = deque()
        self._highest_sacked = 0  # highest SACKed sequence seen (exclusive)
        self._scan_hint = 0  # first index possibly unresolved below SACK
        # Retransmitted entries awaiting ACK. An insertion-ordered dict,
        # not a set: Entry hashes by identity, so set iteration order
        # would depend on heap addresses — the RACK re-mark loop in
        # _detect_losses() would then retransmit same-pass losses in a
        # process-dependent order. Dict iteration is insertion
        # (= retransmission) order, a pure function of simulation state.
        self._retx_inflight: Dict[Entry, None] = {}

        self.rto = config.recovery.estimator()  # the run's resolved recovery spec
        self._rto_deadline: Optional[int] = None
        self._rto_event = None

        self.started = False
        self.completed = False
        host.register_endpoint(spec.flow_id, self)
        # Handle kept so a sharded run can neuter the inert sender
        # replica on a non-owning shard (repro.sim.sharding).
        self._start_event = self.engine.schedule_at(spec.start_ns, self.start)

    def _release(self, *controllers) -> None:
        """Last step of a family's ``_complete``. The sender leaves its
        host's demux table (the sink recycles a late ACK) and the cycles
        through its start handle and TLT ``controllers`` are cut, so it
        is freed with all it owns by reference count: the engine runs
        with the collector off. Its fields stay readable. The receiver
        stays: a spurious retransmission may still be in flight."""
        self.host.unregister_endpoint(self.spec.flow_id)
        self._start_event = None
        for controller in controllers:
            if controller is not None:
                controller.sender = None

    # -------------------------------------------------------- family hooks

    def _on_loss_detected(self, marked: List[Entry]) -> None:
        """React to losses found by ACK/SACK/echo evidence (not by RTO)."""
        raise NotImplementedError

    def _on_timeout(self) -> None:
        """React to an expired RTO; the timer is already backed off and
        re-armed."""
        raise NotImplementedError

    # ---------------------------------------------------------- scoreboard

    def _srtt(self) -> int:
        return self.rto.srtt or self.config.base_rtt_ns

    def _record_tx(self, entry: Entry, now: int) -> bool:
        """Account one (re)transmission of ``entry``; True for a retx."""
        is_retx = entry.first_tx_ns >= 0
        if is_retx:
            entry.retx_count += 1
            entry.lost = False
            self._retx_inflight[entry] = None
        else:
            entry.first_tx_ns = now
        entry.last_tx_ns = now
        if not entry.in_pipe:
            entry.in_pipe = True
            self.pipe += entry.weight
        return is_retx

    def _ack_to(self, seq: int) -> None:
        """Cumulative ACK: every entry ending at or before ``seq``."""
        entries = self.entries
        idx = self._head
        n = len(entries)
        now = self.engine.now
        pipe_drop = 0
        retx_pop = self._retx_inflight.pop
        add_sample = self._add_delivery_sample
        while idx < n:
            entry = entries[idx]
            if entry.end > seq:
                break
            if entry.in_pipe:
                entry.in_pipe = False
                pipe_drop += entry.weight
            if not entry.delivered:
                entry.delivered = True
                add_sample(now - entry.first_tx_ns)
            entry.acked = True
            entry.lost = False
            retx_pop(entry, None)
            idx += 1
        if pipe_drop:
            self.pipe -= pipe_drop
        self._head = idx
        if self._scan_hint < idx:
            self._scan_hint = idx

    def _apply_sack(self, blocks) -> int:
        """Mark entries wholly inside a SACK block; returns the sequence
        units newly SACKed. Entries are stride-aligned, so a block's
        first entry index is ``lo // stride`` — no window scan needed.
        Ranges beyond what was ever sent are ignored."""
        if not blocks:
            return 0
        newly = 0
        now = self.engine.now
        entries = self.entries
        stride = self.stride
        head = self._head
        n = len(entries)
        pipe_drop = 0
        retx_pop = self._retx_inflight.pop
        add_sample = self._add_delivery_sample
        for lo, hi in blocks:
            if hi > self._highest_sacked:
                self._highest_sacked = hi
            idx = lo // stride
            if idx < head:
                idx = head
            while idx < n:
                entry = entries[idx]
                if entry.start >= hi:
                    break
                if not (entry.acked or entry.sacked) and entry.start >= lo and entry.end <= hi:
                    entry.sacked = True
                    entry.lost = False
                    if entry.in_pipe:
                        entry.in_pipe = False
                        pipe_drop += entry.weight
                    if not entry.delivered:
                        entry.delivered = True
                        add_sample(now - entry.first_tx_ns)
                    retx_pop(entry, None)
                    newly += entry.end - entry.start
                idx += 1
        if pipe_drop:
            self.pipe -= pipe_drop
        return newly

    def _first_unacked(self) -> Optional[Entry]:
        entries = self.entries
        for idx in range(self._head, len(entries)):
            entry = entries[idx]
            if not (entry.acked or entry.sacked):
                return entry
        return None

    # ------------------------------------------------------ loss detection

    def _detect_losses(self) -> List[Entry]:
        """Mark holes lost (dup-ACK threshold 1 / SACK-based).

        Three rules, each amortized O(1) per entry transition:

        1. never-retransmitted entries below the highest SACK are holes
           (scanned once thanks to the resolved-prefix hint);
        2. on a duplicate ACK the head-of-line entry is a hole
           (early retransmit, dup-ACK threshold 1);
        3. a *retransmitted* entry is only re-marked once it has aged
           a full SRTT below the highest SACK (RACK-style) — re-marking
           it on every ACK would spuriously retransmit in-flight data.
        """
        now = self.engine.now
        srtt = self._srtt()
        marked: List[Entry] = []
        entries = self.entries
        n = len(entries)
        highest = self._highest_sacked
        head = self._head

        idx = head if head > self._scan_hint else self._scan_hint
        while idx < n:
            entry = entries[idx]
            if entry.end > highest:
                break
            if not (entry.acked or entry.sacked or entry.lost) and entry.retx_count == 0:
                self._mark_lost(entry)
                marked.append(entry)
            idx += 1
        self._scan_hint = idx

        if self.dupacks >= DUPACK_THRESHOLD and head < n:
            entry = entries[head]
            if not (entry.acked or entry.sacked or entry.lost):
                if entry.retx_count == 0 or entry.last_tx_ns + srtt <= now:
                    self._mark_lost(entry)
                    marked.append(entry)

        if self._retx_inflight:
            # Everything in flight again is unresolved (ACK, SACK and
            # marking all remove it); _mark_lost edits the dict, so
            # collect the aged entries before marking them.
            first_aged = len(marked)
            for entry in self._retx_inflight:
                if entry.end <= highest and entry.last_tx_ns + srtt <= now:
                    marked.append(entry)
            for idx in range(first_aged, len(marked)):
                self._mark_lost(marked[idx])

        if marked:
            self._on_loss_detected(marked)
        return marked

    def _mark_lost(self, entry: Entry) -> None:
        """Queue ``entry`` for retransmission; the caller has checked
        that it is neither acked, SACKed nor already lost."""
        entry.lost = True
        if entry.in_pipe:
            entry.in_pipe = False
            self.pipe -= entry.weight
        self._retx_inflight.pop(entry, None)
        self.lost_queue.append(entry)

    def _mark_all_lost(self) -> List[Entry]:
        """RTO: everything outstanding is lost."""
        marked: List[Entry] = []
        entries = self.entries
        for idx in range(self._head, len(entries)):
            entry = entries[idx]
            if not (entry.acked or entry.sacked or entry.lost):
                self._mark_lost(entry)
                marked.append(entry)
        return marked

    def mark_lost_sent_before(self, tx_time_ns: int) -> List[Entry]:
        """TLT echo-based loss detection: everything transmitted at or
        before ``tx_time_ns`` that is still in flight is lost (§5.1,
        'guaranteed fast loss detection')."""
        marked: List[Entry] = []
        entries = self.entries
        for idx in range(self._head, len(entries)):
            entry = entries[idx]
            if entry.acked or entry.sacked or entry.lost:
                continue
            if entry.in_pipe and entry.last_tx_ns <= tx_time_ns:
                self._mark_lost(entry)
                marked.append(entry)
        if marked:
            self._on_loss_detected(marked)
        return marked

    # ---------------------------------------------------------- lost queue

    def _next_lost(self) -> Optional[Entry]:
        """Peek the next entry to retransmit, dropping stale heads:
        ACK, SACK and retransmission all clear ``lost`` but leave the
        entry queued."""
        lost_queue = self.lost_queue
        while lost_queue:
            entry = lost_queue[0]
            if entry.lost:
                return entry
            lost_queue.popleft()
        return None

    def _pop_lost(self) -> Optional[Entry]:
        entry = self._next_lost()
        if entry is not None:
            self.lost_queue.popleft()
        return entry

    def has_unrepaired_loss(self) -> bool:
        return self._next_lost() is not None

    def clock_retransmit(self) -> int:
        """Important ACK-clocking, full-packet flavor: retransmit the
        first lost entry (or the first unacked one when nothing is
        marked lost) at once, bypassing window and pacing. The caller
        (TLT controller) marks the packet. Returns the weight sent."""
        entry = self._pop_lost() or self._first_unacked()
        if entry is None:
            return 0
        self._transmit(entry, clock_mark=True)
        return entry.weight

    # --------------------------------------------------------------- timer

    @property
    def rto_armed(self) -> bool:
        return self._rto_deadline is not None

    def _arm_rto(self) -> None:
        if self._rto_deadline is None:
            self._restart_rto()

    def _restart_rto(self) -> None:
        self._rto_deadline = self.engine.now + self.rto.current
        if self._rto_event is None:
            self._rto_event = self.engine.schedule_timer_at(self._rto_deadline, self._rto_fire)

    def _cancel_rto(self) -> None:
        self._rto_deadline = None
        if self._rto_event is not None:
            self._rto_event.cancel()
            self._rto_event = None

    def _rto_fire(self) -> None:
        self._rto_event = None
        if self.completed or self._rto_deadline is None:
            return
        engine = self.engine
        if engine.now < self._rto_deadline:
            self._rto_event = engine.schedule_timer_at(self._rto_deadline, self._rto_fire)
            return
        if self.is_all_acked():
            return
        stats = self.stats
        rto = self.rto
        self.record.timeouts += 1
        stats.timeouts += 1
        if stats.audit_ring is not None:
            stats.audit_ring.record(
                "rto_fire", flow=self.spec.flow_id, time_ns=engine.now, info=rto.current,
            )
        if stats.on_rto_fire is not None:
            stats.on_rto_fire(self.spec.flow_id, rto.current)
        rto.backoff()
        # Re-arm before the family reacts: its reaction transmits, and
        # the order of schedule calls is part of the event order.
        self._rto_deadline = engine.now + rto.current
        self._rto_event = engine.schedule_timer_at(self._rto_deadline, self._rto_fire)
        self._on_timeout()
