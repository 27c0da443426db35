"""Run-wide measurement state shared by hosts and switches.

One :class:`NetStats` instance is attached to a :class:`repro.net.topology.Network`;
transports and switches increment it directly (cheap integer ops) and
experiments read it after the run.
"""

from __future__ import annotations

import random
from operator import attrgetter
from typing import Dict, Iterator, List, Optional

from repro.net.packet import Color, PacketKind
from repro.stats.percentile import summarize


class GroupTally:
    """Live (not retired) and completed flow records of one group."""

    __slots__ = ("live", "completed")

    def __init__(self) -> None:
        self.live = 0
        self.completed = 0


class FlowRecord:
    """Lifecycle record of one flow.

    ``end_rx_ns`` is counted at the write: once the record belongs to a
    :class:`NetStats` (:meth:`NetStats.add_flow`), every assignment
    moves that group's :class:`GroupTally`, whoever assigns.
    """

    __slots__ = (
        "flow_id",
        "src",
        "dst",
        "size",
        "start_ns",
        "group",
        "_end_rx_ns",
        "_tally",
        "end_ack_ns",
        "timeouts",
        "retx_bytes",
        "tx_bytes",
        "final_rto_ns",
        "final_srtt_ns",
    )

    def __init__(self, flow_id: int, src: int, dst: int, size: int, start_ns: int, group: str):
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.size = size
        self.start_ns = start_ns
        self.group = group  # "fg" (foreground/incast) or "bg" (background)
        self._end_rx_ns: Optional[int] = None  # receiver has every byte
        self._tally: Optional[GroupTally] = None  # set while in NetStats.flows
        self.end_ack_ns: Optional[int] = None  # sender saw everything acked
        self.timeouts = 0
        self.retx_bytes = 0
        self.tx_bytes = 0
        self.final_rto_ns: Optional[int] = None
        self.final_srtt_ns: Optional[int] = None

    def _set_end_rx_ns(self, value: Optional[int]) -> None:
        tally = self._tally
        if tally is not None:
            tally.completed += (value is not None) - (self._end_rx_ns is not None)
        self._end_rx_ns = value

    #: When the receiver had every byte. Reads stay a C-level slot read.
    end_rx_ns = property(attrgetter("_end_rx_ns"), _set_end_rx_ns)

    @property
    def completed(self) -> bool:
        return self._end_rx_ns is not None

    @property
    def fct_ns(self) -> Optional[int]:
        """Flow completion time: flow start until the receiver has all bytes."""
        if self._end_rx_ns is None:
            return None
        return self._end_rx_ns - self.start_ns

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"FlowRecord({self.flow_id}, {self.group}, size={self.size}, "
            f"fct={self.fct_ns})"
        )


#: Cap on per-run sample reservoirs to bound memory in long runs.
MAX_SAMPLES = 500_000


class Reservoir:
    """Uniform fixed-capacity sample of a stream (Vitter's Algorithm R).

    Every element of the stream ends up in the sample with probability
    ``capacity / seen``, so percentiles computed over the sample are
    unbiased however long the run — unlike keep-first-N truncation,
    which freezes the sample on cold-start behaviour. Deterministic for
    a given seed and insertion order. Supports the sequence protocol so
    callers can treat it like the list it replaces.
    """

    __slots__ = ("capacity", "seen", "_samples", "_rng")

    def __init__(self, capacity: int = MAX_SAMPLES, seed: object = 0):
        if capacity <= 0:
            raise ValueError("reservoir capacity must be positive")
        self.capacity = capacity
        self.seen = 0
        self._samples: List[int] = []
        self._rng = random.Random(seed)

    def add(self, value: int) -> None:
        self.seen += 1
        if len(self._samples) < self.capacity:
            self._samples.append(value)
            return
        slot = self._rng.randrange(self.seen)
        if slot < self.capacity:
            self._samples[slot] = value

    def __len__(self) -> int:
        return len(self._samples)

    def __iter__(self) -> Iterator[int]:
        return iter(self._samples)

    def __getitem__(self, index):
        return self._samples[index]

    def __repr__(self) -> str:  # pragma: no cover
        return f"Reservoir({len(self._samples)}/{self.capacity} of {self.seen} seen)"


class NetStats:
    """Counters and samples for a whole simulation run.

    ``seed`` makes the sample reservoirs deterministic; the topology
    builders pass the run seed through.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        # Host-side packet accounting.
        self.green_data_packets = 0
        self.red_data_packets = 0
        self.green_data_bytes = 0
        self.red_data_bytes = 0
        self.clocking_bytes = 0  # bytes injected by important ACK-clocking
        self.clocking_packets = 0
        # Switch-side drop accounting. The *_data/*_ctrl split separates
        # data packets from control packets (SYN/ACK/FIN/NACK/CNP, which
        # are forced green under TLT): Table 1's important-loss metric
        # must compare green *data* drops against green *data* sends.
        self.drops_green = 0
        self.drops_red = 0
        self.drops_green_data = 0
        self.drops_red_data = 0
        self.drops_green_ctrl = 0
        self.drops_red_ctrl = 0
        self.drop_bytes = 0
        # Non-congestion (fault-injected) losses: corruption, blackhole
        # windows during link/switch failures. Kept apart from the
        # congestion counters above so the §4 green-drop faithfulness
        # numbers stay about congestion while ``important_loss_rate``
        # still sees every lost green data packet.
        self.drops_fault = 0
        self.drops_fault_green = 0
        self.drops_fault_red = 0
        self.drops_fault_green_data = 0
        self.drops_fault_bytes = 0
        self.ecn_marks = 0
        # PFC accounting.
        self.pause_frames = 0
        self.resume_frames = 0
        # Transport events.
        self.timeouts = 0
        self.fast_retransmits = 0
        # Sample reservoirs (uniform over the run, see Reservoir).
        self.rtt_samples_fg = Reservoir(MAX_SAMPLES, seed=f"{seed}:rtt_fg")
        self.rtt_samples_bg = Reservoir(MAX_SAMPLES, seed=f"{seed}:rtt_bg")
        self.delivery_samples = Reservoir(MAX_SAMPLES, seed=f"{seed}:delivery")
        #: Live records. Written only through :meth:`add_flow` /
        #: :meth:`retire_flow`, which keep ``_tallies`` in step.
        self.flows: Dict[int, FlowRecord] = {}
        self._tallies: Dict[str, GroupTally] = {}
        # Retired-flow aggregates: million-request service runs
        # (repro.service) retire completed FlowRecords so ``flows``
        # stays O(live flows); the totals below keep the derived
        # metrics (flow counts, timeouts/1k, goodput) exact.
        self.retired_flows: Dict[str, int] = {}  # group -> count
        self.retired_bytes: Dict[str, int] = {}  # group -> completed bytes
        self.retired_timeouts = 0
        # Flow ids whose sender lives on another shard (sharded runs
        # only, see repro.sim.sharding): the local record is an inert
        # receiver-side replica — tx/retx/timeout counters stay zero by
        # construction, so sender-side ledger checks must skip it.
        self.foreign_src_flows: set = set()
        # Optional audit trace ring (set by repro.audit.Auditor).
        self.audit_ring = None
        # Optional RTO-fire hook ``fn(flow_id, rto_ns)`` (set by
        # repro.telemetry.Telemetry to trigger flight-recorder dumps).
        # RTO fires are rare, so the check stays off the hot path.
        self.on_rto_fire = None

    # -- flow bookkeeping ------------------------------------------------------

    def new_flow(self, flow_id: int, src: int, dst: int, size: int, start_ns: int, group: str) -> FlowRecord:
        return self.add_flow(FlowRecord(flow_id, src, dst, size, start_ns, group))

    def add_flow(self, record: FlowRecord) -> FlowRecord:
        """Adopt ``record`` (complete or not), replacing any record of
        the same flow id."""
        old = self.flows.get(record.flow_id)
        if old is not None:
            self._release(old)
        tally = self._tallies.get(record.group)
        if tally is None:
            tally = self._tallies[record.group] = GroupTally()
        tally.live += 1
        tally.completed += record._end_rx_ns is not None
        record._tally = tally
        self.flows[record.flow_id] = record
        return record

    def _release(self, record: FlowRecord) -> None:
        tally = record._tally
        tally.live -= 1
        tally.completed -= record._end_rx_ns is not None
        record._tally = None

    def retire_flow(self, flow_id: int) -> bool:
        """Drop a *completed* flow's record, folding it into the
        retired aggregates (O(1) memory for steady-state runs).

        Only completed flows retire — an in-flight record is still
        being written by its transport. Retired flows disappear from
        per-flow views (``fct_list``/``fct_summary``); callers that
        retire must measure latency on their own streaming estimators
        (see :mod:`repro.stats.streaming`). Returns True on retire.
        """
        record = self.flows.get(flow_id)
        if record is None or record._end_rx_ns is None:
            return False
        del self.flows[flow_id]
        self._release(record)
        self.foreign_src_flows.discard(flow_id)
        group = record.group
        self.retired_flows[group] = self.retired_flows.get(group, 0) + 1
        self.retired_bytes[group] = self.retired_bytes.get(group, 0) + record.size
        self.retired_timeouts += record.timeouts
        return True

    def rtt_samples(self, group: str) -> Reservoir:
        """The RTT reservoir flows of ``group`` feed (senders bind its
        ``add`` once; nothing replaces the reservoirs during a run)."""
        return self.rtt_samples_fg if group == "fg" else self.rtt_samples_bg

    def count_drop(self, packet) -> None:
        """Account one switch drop, split by color and packet kind."""
        self.drop_bytes += packet.size
        is_data = packet.kind == PacketKind.DATA
        if packet.color == Color.RED:
            self.drops_red += 1
            if is_data:
                self.drops_red_data += 1
            else:
                self.drops_red_ctrl += 1
        else:
            self.drops_green += 1
            if is_data:
                self.drops_green_data += 1
            else:
                self.drops_green_ctrl += 1

    def count_fault_drop(self, packet) -> None:
        """Account one non-congestion loss (corruption, blackhole).

        Deliberately *not* folded into :meth:`count_drop`: the audit
        green-drop checker and the congestion-drop columns must only see
        drops the admission pipeline chose to make.
        """
        self.drops_fault += 1
        self.drops_fault_bytes += packet.size
        if packet.color == Color.RED:
            self.drops_fault_red += 1
        else:
            self.drops_fault_green += 1
            if packet.kind == PacketKind.DATA:
                self.drops_fault_green_data += 1

    # -- derived metrics ---------------------------------------------------------

    def fct_list(self, group: str) -> List[int]:
        """Completion times (ns) of finished flows in ``group``."""
        return [
            r.fct_ns  # type: ignore[misc]
            for r in self.flows.values()
            if r.group == group and r.fct_ns is not None
        ]

    def fct_summary(self, group: str) -> Dict[str, float]:
        return summarize(self.fct_list(group))

    def flow_count(self, group: Optional[str] = None) -> int:
        if group is None:
            return len(self.flows) + sum(self.retired_flows.values())
        return (sum(1 for r in self.flows.values() if r.group == group)
                + self.retired_flows.get(group, 0))

    def incomplete_flows(self, group: Optional[str] = None) -> int:
        """Live flows whose receiver lacks bytes, in O(groups), exact.

        Invariant: ``incomplete == sum over groups of live - completed``
        of the records in ``flows``; the tallies move where a record
        enters (:meth:`add_flow`), completes (``end_rx_ns`` is set, by
        anyone) or leaves (:meth:`retire_flow`). Polled every sample
        tick by the drive loops, so it must not scan ``flows``.
        """
        if group is None:
            return sum(t.live - t.completed for t in self._tallies.values())
        tally = self._tallies.get(group)
        return tally.live - tally.completed if tally is not None else 0

    def timeouts_per_1k_flows(self) -> float:
        flows = self.flow_count()
        if flows == 0:
            return 0.0
        total = sum(r.timeouts for r in self.flows.values()) + self.retired_timeouts
        return 1000.0 * total / flows

    def pause_frames_per_1k_flows(self) -> float:
        flows = self.flow_count()
        if flows == 0:
            return 0.0
        return 1000.0 * self.pause_frames / flows

    def important_loss_rate(self) -> float:
        """Loss rate of important (green) *data* packets.

        Numerator and denominator both count data packets only:
        control packets (SYN/ACK/FIN/NACK/CNP) are forced green but are
        not part of the green data volume Table 1 reports on. Fault
        (non-congestion) losses of green data count too — a corrupted
        important packet is just as lost as a congestion-dropped one.
        """
        if self.green_data_packets == 0:
            return 0.0
        return (
            self.drops_green_data + self.drops_fault_green_data
        ) / self.green_data_packets

    def important_fraction_bytes(self) -> float:
        """Fraction of transmitted data volume marked important."""
        total = self.green_data_bytes + self.red_data_bytes
        if total == 0:
            return 0.0
        return self.green_data_bytes / total

    def goodput_bps(self, group: str, window_ns: int) -> float:
        """Aggregate goodput of completed ``group`` flows over ``window_ns``."""
        if window_ns <= 0:
            return 0.0
        done = sum(r.size for r in self.flows.values()
                   if r.group == group and r.completed)
        done += self.retired_bytes.get(group, 0)
        return done * 8 * 1e9 / window_ns
