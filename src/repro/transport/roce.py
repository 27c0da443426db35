"""The RoCE family: a packet-sequence (PSN) transport base.

One sender/receiver pair supports every RoCE variant in the paper:

================  ========  =========  ==========  ==============
variant           recovery  pacing     window      RTO
================  ========  =========  ==========  ==============
``dcqcn``         go-back-N DCQCN rate —           static 4 ms
``dcqcn-sack``    selective DCQCN rate —           static 4 ms
``irn``           selective DCQCN rate BDP cap     RTO_high 1.93 ms
``hpcc``          selective —          HPCC (INT)  static 4 ms
================  ========  =========  ==========  ==============

Receivers ACK every packet (cumulative PSN + SACK blocks in selective
mode), NACK on out-of-order arrival in go-back-N mode, and emit a CNP
at most once per 50 µs while CE-marked packets arrive (DCQCN).

TLT attaches to ``hpcc``/``irn`` through the window-based controller
(§5.1; clocking injects a duplicate of the first unacknowledged packet
— RoCE cannot segment a PSN into bytes, a substitution documented in
DESIGN.md) and to ``dcqcn``/``dcqcn-sack`` through the rate-based
controller (§5.2).
"""

from __future__ import annotations

from typing import List, Optional

from repro.net.node import Host
from repro.net.packet import Color, HEADER_BYTES, Packet, PacketKind, TltMark, alloc_packet
from repro.net.topology import Network
from repro.sim.units import MICROS, tx_time_ns
from repro.stats.collector import FlowRecord, NetStats
from repro.transport.base import FlowSpec, TransportConfig
from repro.transport.dcqcn import DcqcnRateControl
from repro.transport.hpcc import HpccController
from repro.transport.recovery import DUPACK_THRESHOLD
from repro.transport.reliable import Entry, ReliableSender
from repro.transport.sack import ReceiverBuffer

# Per-packet constants as module globals: one dict lookup each instead
# of a global plus an enum attribute.
_DATA = PacketKind.DATA
_ACK = PacketKind.ACK
_NACK = PacketKind.NACK
_CNP = PacketKind.CNP
_GREEN = Color.GREEN
_CONTROL = TltMark.CONTROL

#: Payload bytes per PSN.
PACKET_PAYLOAD = 1000
#: At most one CNP per flow per interval (DCQCN).
CNP_INTERVAL_NS = 50 * MICROS


class RoceSender(ReliableSender):
    """Rate- and/or window-limited PSN sender.

    Scoreboard entries are single PSNs (``stride = 1``, ``weight`` =
    payload + header), so ``len(self.entries)`` is the highest PSN + 1
    ever sent. Go-back-N mode keeps the scoreboard for ``pipe`` and
    delivery samples but retransmits from ``snd_ptr`` instead of the
    lost queue.
    """

    name = "roce"

    def __init__(
        self,
        host: Host,
        spec: FlowSpec,
        config: TransportConfig,
        stats: NetStats,
        recovery: str = "sack",
        use_dcqcn: bool = True,
        window_cap_bytes: Optional[int] = None,
        use_hpcc: bool = False,
    ):
        if recovery not in ("sack", "gbn"):
            raise ValueError(f"unknown recovery mode {recovery!r}")
        super().__init__(host, spec, config, stats, stride=1)
        self.recovery = recovery

        self.payload = PACKET_PAYLOAD
        self.npkts = max(1, -(-spec.size // PACKET_PAYLOAD))
        self._last_payload = spec.size - (self.npkts - 1) * PACKET_PAYLOAD

        self.snd_una = 0  # first unacked PSN
        self.snd_next = 0  # next new PSN
        self.snd_ptr = 0  # go-back-N transmit pointer

        self.rate_ctrl = DcqcnRateControl(self.engine, config) if use_dcqcn else None
        self.hpcc = HpccController(config) if use_hpcc else None
        self.window_cap_bytes = window_cap_bytes
        self._next_tx_time = 0
        self._send_event = None

        self._rack_event = None  # reorder timer re-marking aged retx

        self.tlt = None  # window-based TLT controller (irn/hpcc)
        self.tlt_rate = None  # rate-based TLT controller (dcqcn variants)

    # -------------------------------------------------------------- lifecycle

    def start(self) -> None:
        if self.started:
            return
        self.started = True
        if self.rate_ctrl is not None:
            self.rate_ctrl.start()
        self._schedule_send()

    def is_all_acked(self) -> bool:
        return self.snd_una >= self.npkts

    # ------------------------------------------------------------- send engine

    def _next_sendable(self) -> Optional[int]:
        """The PSN to send now — rewind pointer, lost packet or new data
        — or None when there is none or the window (HPCC's, or the
        static cap) has no room for it. The one place that decides; the
        send engine asks it before scheduling and again when it fires."""
        if self.recovery == "gbn":
            psn = self.snd_ptr
        else:
            lost = self._next_lost() if self.lost_queue else None
            psn = lost.start if lost is not None else self.snd_next
        if psn >= self.npkts:
            return None
        hpcc = self.hpcc
        window = hpcc.window if hpcc is not None else self.window_cap_bytes
        if window is not None and self.pipe > 0:
            payload = self._last_payload if psn == self.npkts - 1 else self.payload
            if self.pipe + payload + HEADER_BYTES > window:
                return None  # resumed on the next ACK
        return psn

    def _schedule_send(self) -> None:
        """Wake the send engine (ACK, NACK, RTO, reorder timer, TLT):
        arm ``_send_fire`` at the pacing time if there is a PSN to send."""
        if self._send_event is not None or self.completed or not self.started:
            return
        if self._next_sendable() is None:
            return
        now = self.engine.now
        at = now if now > self._next_tx_time else self._next_tx_time
        self._send_event = self.engine.schedule_at(at, self._send_fire)

    def _send_fire(self) -> None:
        """Send one PSN and re-arm at the next pacing time while there
        is another: the send engine's steady state, one frame a packet."""
        self._send_event = None
        if self.completed:
            return
        psn = self._next_sendable()
        if psn is None:
            return
        if self.recovery == "gbn":
            self.snd_ptr += 1
        else:
            if psn == self.snd_next:
                self.snd_next += 1
            else:
                self.lost_queue.popleft()
        entries = self.entries
        if psn == len(entries):  # first transmission of this PSN
            payload = self._last_payload if psn == self.npkts - 1 else self.payload
            entries.append(Entry(psn, psn + 1, payload + HEADER_BYTES))
        self._transmit(entries[psn])
        # _schedule_send's re-arm: nothing _transmit does can complete
        # the flow or arm another send.
        if self._next_sendable() is not None:
            engine = self.engine
            now = engine.now
            at = now if now > self._next_tx_time else self._next_tx_time
            self._send_event = engine.schedule_at(at, self._send_fire)

    def _transmit(self, entry: Entry, clock_mark: bool = False) -> None:
        now = self.engine.now
        psn = entry.start
        payload = entry.weight - HEADER_BYTES
        record = self.record
        is_retx = self._record_tx(entry, now)
        if is_retx:
            record.retx_bytes += payload
            if self.recovery == "sack":
                self._arm_rack_timer()

        spec = self.spec
        packet = alloc_packet(spec.flow_id, spec.src, spec.dst, _DATA, psn, payload)
        packet.ecn_capable = True
        packet.ts_sent = now
        packet.tclass = self.config.traffic_class
        packet.is_retx = is_retx
        if self.hpcc is not None:
            packet.int_records = []  # request INT telemetry
        record.tx_bytes += payload

        if self.tlt is not None:
            if clock_mark:
                self.tlt.mark_clock_data(packet)
            else:
                self.tlt.mark_data(packet)
        elif self.tlt_rate is not None:
            self.tlt_rate.mark_data(packet, psn)

        self.host.send(packet)
        if self._rto_deadline is None:
            self._restart_rto()
        rate_ctrl = self.rate_ctrl
        if rate_ctrl is not None:
            size = packet.size
            rate_ctrl.on_bytes_sent(size)
            # DCQCN never paces below min_rate_bps (its own invariant).
            self._next_tx_time = now + tx_time_ns(size, rate_ctrl.rate_bps)

    def _is_last_allowed(self) -> bool:
        return self._next_sendable() is None

    # ------------------------------------------------------------ receive path

    def on_packet(self, packet: Packet) -> None:
        if self.completed:
            return
        kind = packet.kind
        if kind != _ACK:
            if kind == _CNP:
                if self.rate_ctrl is not None:
                    self.rate_ctrl.on_cnp()
            elif kind == _NACK:
                self._on_nack(packet)
            return

        tlt = self.tlt
        echo_ts = -1
        if tlt is not None:
            echo_ts = tlt.on_ack(packet)
            if echo_ts is None:
                return
        now = self.engine.now
        if packet.ts_echo > 0:
            rtt = now - packet.ts_echo
            self.rto.on_rtt_sample(rtt)
            self._add_rtt_sample(rtt)

        ack = packet.ack
        if ack > self.snd_una:
            self._ack_to(ack)
            self.snd_una = ack
            self.dupacks = 0
            self._restart_rto()
        elif ack == self.snd_una and ack < len(self.entries):
            self.dupacks += 1

        selective = self.recovery == "sack"
        sacked = self._apply_sack(packet.sack) if selective else 0

        if echo_ts >= 0:
            self.mark_lost_sent_before(echo_ts)

        if self.hpcc is not None:
            self.hpcc.on_ack(packet, self.snd_next)

        if selective and (self.dupacks >= DUPACK_THRESHOLD or sacked):
            self._detect_losses()
            self._arm_rack_timer()

        if self.snd_una >= self.npkts:
            self._complete()
            return

        self._schedule_send()
        if tlt is not None:
            tlt.after_ack()

    def _on_nack(self, packet: Packet) -> None:
        """Go-back-N: rewind to the receiver's expected PSN."""
        expected = packet.ack
        if expected > self.snd_una:
            self._ack_to(expected)
            self.snd_una = expected
        if self.recovery == "gbn" and expected < self.snd_ptr:
            self.snd_ptr = expected
            if self.tlt_rate is not None and len(self.entries) > expected:
                self.tlt_rate.on_retx_round(expected, len(self.entries) - 1)
        self._restart_rto()
        if self.is_all_acked():
            self._complete()
            return
        self._schedule_send()

    def _on_loss_detected(self, marked: List[Entry]) -> None:
        """A fast-retransmit round starts; rate-based TLT protects its
        first and last PSN."""
        self.stats.fast_retransmits += 1
        if self.tlt_rate is not None:
            psns = [entry.start for entry in marked]
            self.tlt_rate.on_retx_round(min(psns), max(psns))

    def _arm_rack_timer(self) -> None:
        """RACK-style reorder timer: a retransmission below the highest
        SACK whose re-marking is deferred by the aging rule must be
        re-examined even if no further ACK ever arrives (all later
        packets may already be delivered — silence otherwise lasts
        until the full RTO). Selective mode only: callers test it."""
        if not self._retx_inflight or self.completed:
            return
        if self._rack_event is not None:
            return
        self._rack_event = self.engine.schedule_timer(self._srtt() + 1, self._rack_fire)

    def _rack_fire(self) -> None:
        self._rack_event = None
        if self.completed:
            return
        self._detect_losses()
        self._arm_rack_timer()
        self._schedule_send()

    # ------------------------------------------------------------- timers

    def _on_timeout(self) -> None:
        self.dupacks = 0
        first = None
        if self.recovery == "gbn":
            self.snd_ptr = self.snd_una
            if len(self.entries) > self.snd_una:
                first, last = self.snd_una, len(self.entries) - 1
        else:
            marked = self._mark_all_lost()
            if marked:
                first, last = marked[0].start, marked[-1].start
        if first is not None and self.tlt_rate is not None:
            self.tlt_rate.on_retx_round(first, last)
        self._schedule_send()

    # ------------------------------------------------------- TLT interface

    def try_send(self) -> None:
        self._schedule_send()

    def clock_one_byte(self) -> None:
        """RoCE cannot segment a PSN — the minimal clocking unit is a
        whole packet (documented substitution)."""
        self.clock_retransmit()

    # ------------------------------------------------------------- completion

    def _complete(self) -> None:
        if self.completed:
            return
        self.completed = True
        self._cancel_rto()
        if self._send_event is not None:
            self._send_event.cancel()
            self._send_event = None
        if self._rack_event is not None:
            self._rack_event.cancel()
            self._rack_event = None
        if self.rate_ctrl is not None:
            self.rate_ctrl.stop()
        self.record.end_ack_ns = self.engine.now
        self.record.final_rto_ns = self.rto.base_rto
        self.record.final_srtt_ns = self.rto.srtt
        if self.spec.on_complete_ack is not None:
            self.spec.on_complete_ack(self.record)
        self._release(self.tlt, self.tlt_rate)


class RoceReceiver:
    """PSN receiver: per-packet ACKs, go-back-N NACKs, CNP generation."""

    def __init__(
        self,
        host: Host,
        spec: FlowSpec,
        config: TransportConfig,
        stats: NetStats,
        recovery: str = "sack",
    ):
        self.host = host
        self.spec = spec
        self.config = config
        self.stats = stats
        self.engine = host.engine
        self.recovery = recovery
        self.npkts = max(1, -(-spec.size // PACKET_PAYLOAD))
        self.buffer = ReceiverBuffer()
        self.rcv_nxt = 0  # go-back-N cumulative pointer
        self._nacked_at = -1
        self._last_cnp_ns = -(1 << 60)
        self.tlt_rx = None
        self.done = False
        host.register_endpoint(spec.flow_id, self)

    @property
    def record(self) -> Optional[FlowRecord]:
        return self.stats.flows.get(self.spec.flow_id)

    def on_packet(self, packet: Packet) -> None:
        """One data packet, one frame: CNP, then go-back-N (in order,
        duplicate, or a gap NACKed once) or selective placement, the
        completion edge and the one ACK both modes build."""
        if packet.kind != _DATA:
            return
        tlt_rx = self.tlt_rx
        if tlt_rx is not None:
            tlt_rx.on_data(packet)
        if packet.ce:
            self._maybe_cnp()
        if self.recovery == "gbn":
            rcv_nxt = self.rcv_nxt
            psn = packet.seq
            if psn == rcv_nxt:
                self.rcv_nxt = rcv_nxt = rcv_nxt + 1
                self._nacked_at = -1
            elif psn > rcv_nxt:
                # Out-of-order: discard and NACK once per gap.
                if self._nacked_at != rcv_nxt:
                    self._nacked_at = rcv_nxt
                    self._send_nack(rcv_nxt)
                return
            sack = ()  # go-back-N ACKs carry no SACK blocks
        else:
            buffer = self.buffer
            buffer.on_data(packet.seq, 1)
            self.rcv_nxt = rcv_nxt = buffer.rcv_nxt
            sack = buffer.sack_blocks()

        if not self.done and rcv_nxt >= self.npkts:
            self.done = True
            record = self.record
            if record is not None:
                record.end_rx_ns = self.engine.now
            if self.spec.on_complete_rx is not None:
                self.spec.on_complete_rx(record)

        spec = self.spec
        ack = alloc_packet(spec.flow_id, spec.dst, spec.src, _ACK, 0, 0, rcv_nxt)
        ack.ts_echo = packet.ts_sent
        ack.tclass = self.config.traffic_class
        ack.color = _GREEN
        ack.mark = _CONTROL
        if packet.int_records is not None:
            ack.int_echo = packet.int_records
        ack.sack = sack
        if tlt_rx is not None:
            tlt_rx.mark_ack(ack)
        self.host.send(ack)

    def _send_nack(self, expected: int) -> None:
        nack = alloc_packet(self.spec.flow_id, self.spec.dst, self.spec.src, _NACK, 0, 0, expected)
        nack.tclass = self.config.traffic_class
        nack.color = _GREEN
        nack.mark = _CONTROL
        self.host.send(nack)

    def _maybe_cnp(self) -> None:
        """A CE-marked packet arrived: CNP, at most one per interval."""
        now = self.engine.now
        if now - self._last_cnp_ns < CNP_INTERVAL_NS:
            return
        self._last_cnp_ns = now
        cnp = alloc_packet(self.spec.flow_id, self.spec.dst, self.spec.src, _CNP)
        cnp.tclass = self.config.traffic_class
        cnp.color = _GREEN
        cnp.mark = _CONTROL
        self.host.send(cnp)


def create_roce_flow(variant: str, net: Network, spec: FlowSpec, config: TransportConfig):
    """Build a RoCE sender/receiver pair for ``variant``."""
    bdp = config.link_rate_bps * config.base_rtt_ns // 8 // 1_000_000_000
    if variant == "dcqcn":
        kwargs = dict(recovery="gbn", use_dcqcn=True)
    elif variant == "dcqcn-sack":
        kwargs = dict(recovery="sack", use_dcqcn=True)
    elif variant == "irn":
        kwargs = dict(recovery="sack", use_dcqcn=True, window_cap_bytes=bdp)
    elif variant == "hpcc":
        kwargs = dict(recovery="sack", use_dcqcn=False, use_hpcc=True)
    else:
        raise KeyError(f"unknown RoCE variant {variant!r}")
    sender = RoceSender(net.host(spec.src), spec, config, net.stats, **kwargs)
    sender.name = variant
    receiver = RoceReceiver(
        net.host(spec.dst), spec, config, net.stats, recovery=kwargs["recovery"]
    )
    return sender, receiver
