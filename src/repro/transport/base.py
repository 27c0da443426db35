"""Shared transport machinery and the window-based byte-stream base.

:class:`ByteStreamSender` / :class:`ByteStreamReceiver` implement what
every TCP-family transport shares on top of the reliable-delivery core
(:mod:`repro.transport.reliable`: segment scoreboard with SACK,
dup-ACK-threshold-1 early retransmit, RTO with exponential backoff):
MSS segmentation, the congestion window, NewReno-style recovery, TLP
and the optional handshake. Congestion control variants (Reno, DCTCP)
override the ``cc_*`` hooks.

TLT hooks (``tlt`` on the sender, ``tlt_rx`` on the receiver) are
optional objects provided by :mod:`repro.core.window`; when absent the
transport behaves exactly like the baseline protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.net.node import Host
from repro.net.packet import Color, Packet, PacketKind, TltMark, alloc_packet
from repro.sim.units import MICROS
from repro.stats.collector import FlowRecord, NetStats
from repro.transport.recovery import DUPACK_THRESHOLD, TLP_PTO_MIN_NS
from repro.transport.reliable import Entry, ReliableSender
from repro.transport.sack import ReceiverBuffer


@dataclass
class FlowSpec:
    """Description of one flow to run."""

    flow_id: int
    src: int
    dst: int
    size: int
    start_ns: int = 0
    group: str = "bg"  # "fg" foreground/incast or "bg" background
    on_complete_rx: Optional[Callable[["FlowRecord"], None]] = None
    on_complete_ack: Optional[Callable[["FlowRecord"], None]] = None

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"flow size must be positive, got {self.size}")
        if self.src == self.dst:
            raise ValueError("flow source and destination must differ")
        if self.start_ns < 0:
            raise ValueError("flow start time cannot be negative")


@dataclass
class TransportConfig:
    """Knobs shared across the transport suite (paper defaults)."""

    mss: int = 1460
    init_cwnd_segments: int = 10
    # Loss recovery: a spec (repro.transport.recovery), replaced by the
    # run's one resolved Recovery in resolve_config.
    recovery: object = None
    ecn: bool = False  # sender sets ECT, reacts to echoes (DCTCP)
    # Model the 3-way handshake and FIN teardown. SYN/SYN-ACK/FIN are
    # control packets — always important/green under TLT (§5). Off by
    # default: the paper's benchmarks pre-establish connections.
    handshake: bool = False
    # Sender window cap (the role the receive window plays on real
    # hosts); None derives 4x BDP from base_rtt/link_rate.
    max_cwnd_bytes: Optional[int] = None
    # Switch traffic class carried by every packet of the flow
    # (incremental deployment, §5.3: TLT and legacy traffic can be
    # isolated in separate egress queues).
    traffic_class: int = 0
    # Color stamped on every packet of a *non-TLT* flow. None keeps the
    # default (green, i.e. untouched by color-aware dropping). Set to
    # Color.RED to model legacy traffic whose packets carry no TLT DSCP
    # and are classified unimportant by a TLT-configured ACL — the
    # §5.3 misdeployment the incremental-deployment experiment shows.
    plain_color: Optional[object] = None
    # RoCE family additions (the fixed DCQCN, HPCC and packet-size
    # constants live beside their readers in repro.transport).
    base_rtt_ns: int = 80 * MICROS
    dcqcn_g: float = 1.0 / 256.0
    dcqcn_byte_counter: int = 10 * 1_000_000
    min_rate_bps: int = 40_000_000
    link_rate_bps: int = 40_000_000_000


class ByteStreamReceiver:
    """Receives a byte stream, ACKs every data packet, generates SACK."""

    def __init__(self, host: Host, spec: FlowSpec, config: TransportConfig, stats: NetStats):
        self.host = host
        self.spec = spec
        self.config = config
        self.stats = stats
        self.engine = host.engine
        self.buffer = ReceiverBuffer()
        self.tlt_rx = None  # set by repro.core.window.TltWindowReceiver
        self.done = False
        host.register_endpoint(spec.flow_id, self)

    @property
    def record(self) -> Optional[FlowRecord]:
        """The flow record created by the sender (shared via stats)."""
        return self.stats.flows.get(self.spec.flow_id)

    def on_packet(self, packet: Packet) -> None:
        kind = packet.kind
        if kind != PacketKind.DATA:  # DATA first: it is the common case
            if kind == PacketKind.SYN:
                self._send_syn_ack(packet)
            # FIN and anything else: teardown is fire-and-forget;
            # bookkeeping is done at rx.
            return
        tlt_rx = self.tlt_rx
        if tlt_rx is not None:
            tlt_rx.on_data(packet)
        buffer = self.buffer
        buffer.on_data(packet.seq, packet.payload)
        spec = self.spec
        if not self.done and buffer.rcv_nxt >= spec.size:
            self.done = True
            if self.record is not None:
                self.record.end_rx_ns = self.engine.now
            if spec.on_complete_rx is not None:
                spec.on_complete_rx(self.record)
        # One ACK per delivered data packet.
        config = self.config
        ack = alloc_packet(
            spec.flow_id, spec.dst, spec.src, PacketKind.ACK, 0, 0, buffer.rcv_nxt
        )
        ack.sack = buffer.sack_blocks() if buffer.intervals else ()
        ack.ecn_echo = packet.ce
        ack.ts_echo = packet.ts_sent
        ack.tclass = config.traffic_class
        # Pure ACKs are control packets: always important (green).
        ack.color = Color.GREEN
        ack.mark = TltMark.CONTROL
        if tlt_rx is not None:
            tlt_rx.mark_ack(ack)
        elif config.plain_color is not None:
            ack.color = config.plain_color
            ack.mark = TltMark.NONE
        self.host.send(ack)

    def _send_syn_ack(self, syn: Packet) -> None:
        """Reply to a SYN; idempotent for retransmitted SYNs."""
        syn_ack = alloc_packet(self.spec.flow_id, self.spec.dst, self.spec.src, PacketKind.SYN_ACK)
        syn_ack.ts_echo = syn.ts_sent
        syn_ack.tclass = self.config.traffic_class
        syn_ack.color = Color.GREEN
        syn_ack.mark = TltMark.CONTROL
        self.host.send(syn_ack)


class ByteStreamSender(ReliableSender):
    """Window-based reliable sender (base for TCP/DCTCP and variants).

    Scoreboard entries are MSS-aligned segments (``stride = mss``,
    ``weight`` = payload bytes). ``snd_una`` stays byte-granular: 1-byte
    clock probes make cumulative ACKs non-MSS-aligned.
    """

    #: overridden by subclasses for reporting
    name = "bytestream"

    def __init__(
        self,
        host: Host,
        spec: FlowSpec,
        config: TransportConfig,
        stats: NetStats,
    ):
        mss = config.mss
        super().__init__(host, spec, config, stats, stride=mss)
        self.mss = mss
        self.snd_una = 0
        self.snd_nxt = 0
        self.cwnd = config.init_cwnd_segments * mss
        self.ssthresh = 1 << 60
        self.in_recovery = False
        self.recover_point = 0
        self._ca_acc = 0  # congestion-avoidance byte accumulator
        if config.max_cwnd_bytes is not None:
            self.max_cwnd = config.max_cwnd_bytes
        else:
            bdp = config.link_rate_bps * config.base_rtt_ns // 8 // 1_000_000_000
            self.max_cwnd = max(4 * bdp, 64 * mss)

        self._pto_event = None
        self._probe_outstanding = False

        self.tlt = None  # set by repro.core.window.TltWindowSender
        self.established = False  # True once the (optional) handshake ends

    # ------------------------------------------------------------------ start

    def start(self) -> None:
        if self.started:
            return
        self.started = True
        if self.config.handshake:
            self._send_syn()
        else:
            self.established = True
            self.try_send()

    # ------------------------------------------------------------ handshake

    def _send_syn(self) -> None:
        syn = alloc_packet(self.spec.flow_id, self.spec.src, self.spec.dst, PacketKind.SYN)
        syn.ts_sent = self.engine.now
        syn.tclass = self.config.traffic_class
        syn.color = Color.GREEN
        syn.mark = TltMark.CONTROL
        self.host.send(syn)
        # SYN retransmission timer (counts as a timeout when it fires).
        self._arm_rto()

    def _on_syn_ack(self, packet: Packet) -> None:
        if self.established:
            return
        self.established = True
        if packet.ts_echo > 0:
            self.rto.on_rtt_sample(self.engine.now - packet.ts_echo)
        self._cancel_rto()
        self.try_send()

    def _send_fin(self) -> None:
        fin = alloc_packet(self.spec.flow_id, self.spec.src, self.spec.dst, PacketKind.FIN)
        fin.ts_sent = self.engine.now
        fin.tclass = self.config.traffic_class
        fin.color = Color.GREEN
        fin.mark = TltMark.CONTROL
        self.host.send(fin)

    # ------------------------------------------------------------ send path

    def try_send(self) -> int:
        """Send as much as the window allows — lost segments first,
        then new data; returns packets sent. Runs once per ACK."""
        if not self.started or not self.established or self.completed:
            return 0
        sent = 0
        lost_queue = self.lost_queue
        cwnd = self.cwnd  # constant across the burst (_transmit never adjusts it)
        mss = self.mss
        spec_size = self.spec.size
        while True:
            seg = self._next_lost() if lost_queue else None
            if seg is not None:
                if self.pipe + seg.weight > cwnd:
                    break
                lost_queue.popleft()
            else:
                snd_nxt = self.snd_nxt
                remaining = spec_size - snd_nxt
                if remaining <= 0:
                    break
                size = mss if mss < remaining else remaining
                if self.pipe + size > cwnd:
                    break
                seg = Entry(snd_nxt, snd_nxt + size, size)
                self.entries.append(seg)
                self.snd_nxt = seg.end
            self._transmit(seg)
            sent += 1
        return sent

    def _transmit(self, seg: Entry, clock_mark: bool = False) -> None:
        now = self.engine.now
        size = seg.weight
        record = self.record
        is_retx = self._record_tx(seg, now)
        if is_retx:
            record.retx_bytes += size

        spec = self.spec
        config = self.config
        packet = alloc_packet(
            spec.flow_id, spec.src, spec.dst, PacketKind.DATA, seg.start, size
        )
        packet.ecn_capable = config.ecn
        packet.ts_sent = now
        packet.tclass = config.traffic_class
        packet.is_retx = is_retx
        record.tx_bytes += size

        tlt = self.tlt
        if tlt is not None:
            if clock_mark:
                tlt.mark_clock_data(packet)
            else:
                tlt.mark_data(packet)
        elif config.plain_color is not None:
            packet.color = config.plain_color
        self.host.send(packet)
        if self._rto_deadline is None:
            self._restart_rto()
        if config.recovery.tlp and not self._probe_outstanding:
            self._arm_pto()

    def _is_last_allowed(self) -> bool:
        """True when no further send can follow right now (window edge
        or end of data) — the packet just built is the tail of the
        current burst. Mirrors the choice :meth:`try_send` makes next;
        the TLT controller asks while it has an important mark to place."""
        head = self._next_lost() if self.lost_queue else None
        if head is not None:
            return self.pipe + head.weight > self.cwnd
        remaining = self.spec.size - self.snd_nxt
        if remaining <= 0:
            return True
        size = self.mss if self.mss < remaining else remaining
        return self.pipe + size > self.cwnd

    # ------------------------------------------------------------ receive path

    def on_packet(self, packet: Packet) -> None:
        if self.completed:
            return
        kind = packet.kind
        if kind != PacketKind.ACK:  # ACK first: it is the common case
            if kind == PacketKind.SYN_ACK:
                self._on_syn_ack(packet)
            return
        tlt = self.tlt
        echo_ts = -1
        if tlt is not None:
            echo_ts = tlt.on_ack(packet)
            if echo_ts is None:
                return  # Important Clock Echo suppressed below snd_una
        now = self.engine.now

        # Timestamp-based RTT sample (Karn-safe: echo carries the actual
        # transmission time of the packet that triggered this ACK).
        ts_echo = packet.ts_echo
        if ts_echo > 0:
            rtt = now - ts_echo
            self.rto.on_rtt_sample(rtt)
            self._add_rtt_sample(rtt)

        newly_acked = 0
        ack = packet.ack
        snd_una = self.snd_una
        if ack > snd_una:
            newly_acked = ack - snd_una
            self.snd_una = ack
            self.dupacks = 0
            self._probe_outstanding = False
            self._ack_to(ack)
            if self.in_recovery and ack >= self.recover_point:
                self.in_recovery = False
            self._restart_rto()
        elif ack == snd_una and snd_una < self.snd_nxt:
            self.dupacks += 1

        sack = packet.sack
        sacked_bytes = self._apply_sack(sack) if sack else 0

        if echo_ts >= 0:
            # Echo-based loss detection runs once the ACK/SACK state is
            # current, so freshly acknowledged segments are not marked.
            self.mark_lost_sent_before(echo_ts)

        config = self.config
        self.cc_on_ack(newly_acked, packet.ecn_echo and config.ecn)
        if newly_acked and not self.in_recovery:
            # Reno growth: slow start below ssthresh, else 1 MSS per
            # RTT; capped at ``max_cwnd`` (the receive-window role).
            mss = self.mss
            if self.cwnd < self.ssthresh:
                self.cwnd += newly_acked if newly_acked < mss else mss
            else:
                self._ca_acc += mss * newly_acked
                if self._ca_acc >= self.cwnd:
                    self._ca_acc -= self.cwnd
                    self.cwnd += mss
            if self.cwnd > self.max_cwnd:
                self.cwnd = self.max_cwnd

        # Loss detection: dup-ACK threshold (1 = early retransmit) or
        # SACK holes below the highest SACKed sequence.
        if self.dupacks >= DUPACK_THRESHOLD or sacked_bytes:
            self._detect_losses()

        if self.snd_una >= self.spec.size:
            self._complete()
            return

        self.try_send()
        if tlt is not None:
            tlt.after_ack()

    def _on_loss_detected(self, marked: List[Entry]) -> None:
        """Enter NewReno fast recovery (once per window of data)."""
        if self.in_recovery:
            return
        self.in_recovery = True
        self.recover_point = self.snd_nxt
        self.stats.fast_retransmits += 1
        self.cc_on_loss()

    # --------------------------------------------------------------- timers

    def _on_timeout(self) -> None:
        if not self.established:
            # SYN (or SYN-ACK) lost: retransmit the SYN.
            self._send_syn()
            return
        self.dupacks = 0
        # Collapse the window and retransmit from snd_una.
        self.ssthresh = max(self.pipe // 2, 2 * self.mss)
        self.cwnd = self.mss
        self._ca_acc = 0
        self.in_recovery = True
        self.recover_point = self.snd_nxt
        self._mark_all_lost()
        self.try_send()

    # -------------------------------------------------------------- TLP

    def _arm_pto(self) -> None:
        """(Re)arm the probe timer; :meth:`_transmit` calls it while
        TLP is on and no probe is outstanding."""
        pto = max(2 * self._srtt(), TLP_PTO_MIN_NS)
        pto = min(pto, self.rto.current)
        if self._pto_event is not None:
            self._pto_event.cancel()
        self._pto_event = self.engine.schedule_timer(pto, self._pto_fire)

    def _pto_fire(self) -> None:
        self._pto_event = None
        if self.completed or self.snd_una >= self.spec.size:
            return
        if self.pipe == 0 and self.snd_nxt <= self.snd_una:
            return
        # Transmit a loss probe: new data if any, else the highest
        # outstanding segment.
        self._probe_outstanding = True
        if self.snd_nxt < self.spec.size:
            size = min(self.mss, self.spec.size - self.snd_nxt)
            seg = Entry(self.snd_nxt, self.snd_nxt + size, size)
            self.entries.append(seg)
            self.snd_nxt = seg.end
            self._transmit(seg)
            return
        for idx in range(len(self.entries) - 1, self._head - 1, -1):
            seg = self.entries[idx]
            if not (seg.acked or seg.sacked):
                self._transmit(seg)
                return

    # ------------------------------------------------------- TLT helpers

    def is_all_acked(self) -> bool:
        """True when every byte of the flow has been acknowledged."""
        return self.snd_una >= self.spec.size

    def clock_one_byte(self) -> None:
        """Important ACK-clocking, 1-byte flavor: resend the first
        unacked byte (minimal footprint, §5.1)."""
        packet = alloc_packet(
            self.spec.flow_id, self.spec.src, self.spec.dst, PacketKind.DATA, self.snd_una, 1
        )
        packet.ecn_capable = self.config.ecn
        packet.ts_sent = self.engine.now
        packet.tclass = self.config.traffic_class
        packet.is_retx = True
        if self.tlt is not None:
            self.tlt.mark_clock_data(packet)
        self.host.send(packet)
        self._arm_rto()

    # ------------------------------------------------------- CC hooks

    def cc_on_loss(self) -> None:
        """Reno halving on entering fast recovery."""
        self.ssthresh = max(self.cwnd // 2, 2 * self.mss)
        self.cwnd = self.ssthresh
        self._ca_acc = 0

    def cc_on_ack(self, newly_acked: int, ecn_echo: bool) -> None:
        """Per-ACK hook, before window growth (DCTCP: marked-fraction
        tracking and the ECN reaction; ``ecn_echo`` is only ever true
        when the flow negotiated ECT)."""

    # ------------------------------------------------------------- completion

    def _complete(self) -> None:
        if self.completed:
            return
        self.completed = True
        self._cancel_rto()
        if self._pto_event is not None:
            self._pto_event.cancel()
            self._pto_event = None
        self.record.end_ack_ns = self.engine.now
        self.record.final_rto_ns = self.rto.base_rto
        self.record.final_srtt_ns = self.rto.srtt
        if self.config.handshake:
            self._send_fin()
        if self.spec.on_complete_ack is not None:
            self.spec.on_complete_ack(self.record)
        self._release(self.tlt)
