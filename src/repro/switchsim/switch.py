"""The shared-buffer switch device.

Admission pipeline for every arriving packet (§4 of the paper):

1. **Color-aware dropping** — a red (unimportant) packet is dropped when
   the egress queue's red occupancy would exceed the color-aware
   dropping threshold K. This check runs *before* anything else, which
   is exactly how TLT proactively sheds load to protect green packets
   (and to avoid triggering PFC).
2. **Dynamic threshold** — packets are dropped when the egress queue
   exceeds ``alpha * (free pool)`` or the pool is exhausted. With PFC
   enabled the lossless class is never dropped by the dynamic
   threshold (PFC pushes back upstream before that happens; headroom is
   assumed sufficient, as on a correctly configured lossless fabric) —
   only true pool exhaustion drops.
3. **ECN marking** — on admission, per the configured scheme.
4. **PFC accounting** — per-ingress counters drive XOFF/XON.

INT (HPCC) records are appended at dequeue time with the post-dequeue
queue length, cumulative transmitted bytes and the port rate.

**Traffic classes** (§5.3, incremental deployment): each port carries
``num_traffic_classes`` FIFO queues selected by ``packet.tclass`` and
served round-robin. ``color_classes`` restricts color-aware dropping to
the TLT-enabled classes so legacy (non-TLT) traffic in its own class is
never red-dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Tuple

from repro.net.link import Port
from repro.net.node import Device
from repro.net.packet import Color, IntRecord, Packet, PacketKind, recycle
from repro.net.routing import RoutingError, make_fib
from repro.sim.engine import Engine
from repro.stats.collector import NetStats
from repro.switchsim.buffer import SharedBuffer
from repro.switchsim.ecn import EcnScheme, StepEcn
from repro.switchsim.pfc import PfcConfig, PfcEngine
from repro.switchsim.policy import make_policy
from repro.switchsim.queue import EgressQueue


@dataclass(frozen=True)
class SwitchConfig:
    """Per-switch configuration.

    Frozen: the compiled switch kernel binds its fields when it is built,
    so a switch's config changes only through :meth:`Switch.reconfigure`,
    which replaces it and builds the kernel anew.

    One ``SwitchConfig`` instance is typically shared by every switch
    of a topology, so anything holding per-switch *state* must be a
    factory or a declarative spec, instantiated per switch:

    - ``ecn`` carries a shared scheme object (fine for the stateless
      ``StepEcn``); ``ecn_factory``, when set, wins and is called with
      the switch name so each switch gets its own scheme instance —
      scenario builds use it to give every switch an independent
      name-seeded ``RedEcn`` RNG stream (identical across shard
      replicas, which is what makes the RoCE family shardable).
    - ``admission`` and ``path_selection`` are specs (docs/API.md,
      "Specs"), raw or parsed, never instances: each switch builds its
      own policy and FIB from them. ``None`` keeps the Choudhury–Hahne
      + static-K decision open-coded, and static-hash ECMP.
    """

    buffer_bytes: int = 4_500_000  # paper: 4.5 MB per simulated switch
    alpha: float = 1.0
    color_threshold_bytes: Optional[int] = None  # K; None disables coloring
    ecn: Optional[EcnScheme] = None
    #: Per-switch ECN scheme factory (switch name -> scheme); wins over
    #: ``ecn`` when set.
    ecn_factory: Optional[Callable[[str], EcnScheme]] = None
    pfc: PfcConfig = field(default_factory=PfcConfig)
    int_enabled: bool = False
    num_traffic_classes: int = 1
    #: Classes subject to color-aware dropping; None means all classes.
    color_classes: Optional[Tuple[int, ...]] = None
    admission: Optional[object] = None
    path_selection: Optional[object] = None


#: The SwitchConfig fields Switch.reconfigure may change: the ones the data
#: path reads per packet. The others were consumed at construction.
RECONFIGURABLE = frozenset({"color_threshold_bytes", "color_classes", "num_traffic_classes",
                            "int_enabled"})


class Switch(Device):
    """A shared-buffer switch with per-class FIFO egress queues."""

    def __init__(
        self,
        engine: Engine,
        switch_id: int,
        config: SwitchConfig,
        stats: NetStats,
        name: Optional[str] = None,
    ):
        super().__init__(engine, name or f"switch{switch_id}")
        self.switch_id = switch_id
        self.config = config
        self.stats = stats
        self.buffer = SharedBuffer(config.buffer_bytes, config.alpha)
        # Per-switch FIB from the path-selection spec (never a shared
        # instance: the flowlet table and weights are per-switch state).
        self.fib = make_fib(switch_id, config.path_selection, engine)
        self._port_queues: List[List[EgressQueue]] = []
        self._rr: List[int] = []  # per-port round-robin pointer
        self.pfc: Optional[PfcEngine] = None
        # Per-switch ECN scheme: the factory (when set) gives every
        # switch its own instance — stateful schemes (RedEcn's RNG)
        # must never be shared fabric-wide through a shared config.
        self.ecn: Optional[EcnScheme] = (
            config.ecn_factory(self.name) if config.ecn_factory is not None
            else config.ecn
        )
        # Admission policy, one instance per switch. ``admission=None``
        # keeps the default Choudhury–Hahne + static-K *decision*
        # open-coded in ``_receive`` (the form the C ``SwitchKernel``
        # mirrors and the fingerprints were captured on); an explicit
        # spec asks the policy object instead. ``self.policy`` is a
        # ``ChoudhuryHahne`` even on default switches: the auditor
        # re-evaluates it as the reference for every drop.
        self.policy = make_policy(config.admission).bind(self)
        # Local drop counters (stats also aggregates network-wide).
        self.drops_red = 0
        self.drops_green = 0
        # Optional runtime invariant auditor (repro.audit.Auditor) and
        # optional compiled kernel (repro.sim.backend.optimize_network).
        self.audit = None
        self._kernel = None
        self._bind_data_path()

    # -- construction ------------------------------------------------------------

    def add_port(self, rate_bps: int, delay_ns: int) -> Port:
        port = super().add_port(rate_bps, delay_ns)
        self._port_queues.append(
            [EgressQueue(port.port_no) for _ in range(self.config.num_traffic_classes)]
        )
        self._rr.append(0)
        return port

    def finalize(self) -> None:
        """Call after all ports are added: sets up PFC thresholds and
        lets the admission policy resolve per-port state (byte budgets,
        the adaptive-K controller timer)."""
        if self.config.pfc.enabled:
            xoff = self.config.pfc.resolved_xoff(self.config.buffer_bytes, len(self.ports))
            xon = int(xoff * self.config.pfc.xon_fraction)
            self.pfc = PfcEngine(self, xoff, xon)
        self.policy.on_finalize()
        # Capacity-derived path weights for weighted selectors (the
        # fault layer re-syncs them on link_degrade/link_restore).
        self.fib.on_finalize(self.ports)

    @property
    def queues(self) -> List[EgressQueue]:
        """All egress queues of this switch (every port and class)."""
        return [q for qs in self._port_queues for q in qs]

    def queue_for(self, port_no: int, tclass: int = 0) -> EgressQueue:
        return self._port_queues[port_no][tclass]

    def reconfigure(self, **changes) -> None:
        """Give this switch ``dataclasses.replace(self.config, **changes)``
        before it carries traffic (§5.3's incremental deployment sets
        traffic classes and color-aware classes this way).

        Only :data:`RECONFIGURABLE` fields may change. The egress queues
        are rebuilt empty, ``num_traffic_classes`` per port, and a compiled
        kernel, which binds the config's fields, is built anew. Other
        switches sharing the old config keep it.
        """
        fixed = sorted(set(changes) - RECONFIGURABLE)
        if fixed:
            raise ValueError(f"SwitchConfig fields {fixed} are fixed at construction")
        if self.buffer.used:
            raise RuntimeError(f"{self.name}: cannot reconfigure with packets queued")
        self.config = self.policy.config = replace(self.config, **changes)
        self._port_queues = [
            [EgressQueue(port.port_no) for _ in range(self.config.num_traffic_classes)]
            for port in self.ports
        ]
        self._rr = [0] * len(self.ports)
        if self._kernel is not None:
            self._kernel = type(self._kernel)(self)
            self._bind_data_path()

    def set_auditor(self, auditor) -> None:
        """Attach (or detach, with ``None``) the runtime auditor.

        Interceptors installed via :meth:`Device.add_interceptor`
        (``FaultInjector``, ``PacketTracer``, test taps) are preserved,
        in order — audit can be toggled at any point without
        disconnecting them.
        """
        self.audit = auditor
        self._bind_data_path()

    def _bind_data_path(self) -> None:
        """Bind ``receive``/``poll``: the compiled kernel's methods iff
        one is attached (``optimize_network`` attaches kernels only to
        default-admission switches) and no auditor is installed — the
        kernel has no audit hooks — else the Python pipeline below.
        Always through ``_set_base_receive`` so interceptors survive.
        Bound methods only: both end up inside pickled checkpoints.
        """
        kernel = self._kernel
        if kernel is not None and self.audit is None:
            self._set_base_receive(kernel.receive)
            self.poll = kernel.poll
        else:
            self._set_base_receive(self._receive)
            self.poll = self._poll

    # -- data path ---------------------------------------------------------------

    def _receive(self, packet: Packet, in_port: Port) -> None:
        # Fib.lookup, open-coded for the single-path common case.
        fib = self.fib
        try:
            routes = fib._routes[packet.dst]
        except KeyError:
            raise RoutingError(self.switch_id, packet.dst) from None
        egress_no = (
            routes[0] if len(routes) == 1 else fib.lookup(packet.dst, packet.flow_id)
        )
        port_queues = self._port_queues[egress_no]
        nclasses = len(port_queues)
        if nclasses == 1:
            tclass = 0
            queue = port_queues[0]
        else:
            tclass = packet.tclass if 0 <= packet.tclass < nclasses else 0
            queue = port_queues[tclass]
        size = packet.size
        config = self.config
        # An explicit admission spec swaps only the *decision* (K and
        # admit/drop); everything after admission is shared.
        policy = None if config.admission is None else self.policy

        # 1. Color-aware dropping of unimportant packets.
        k = config.color_threshold_bytes if policy is None else policy.color_threshold(queue)
        if (
            k is not None
            and packet.color == Color.RED
            and queue.red_bytes + size > k
            and (config.color_classes is None or tclass in config.color_classes)
        ):
            self._drop(packet, "color", queue)
            return

        # 2. Admission (per-port occupancy across classes).
        port_occupancy = (
            queue.occupancy if nclasses == 1 else sum(q.occupancy for q in port_queues)
        )
        buf = self.buffer
        used = buf.used
        pfc = self.pfc
        if policy is not None:
            reason = policy.admit(queue, port_occupancy, size, pfc is not None)
        elif used + size > buf.capacity:
            reason = "pool"
        elif pfc is None and port_occupancy >= buf.alpha * (buf.capacity - used):
            # SharedBuffer.admits, open-coded. With PFC the class is
            # lossless: only true pool exhaustion (above) drops.
            reason = "dynamic"
        else:
            reason = None
        if reason is not None:
            self._drop(packet, reason, queue, port_occupancy)
            return

        # SharedBuffer.reserve + EgressQueue.push, open-coded, for every
        # policy. Overcommit is impossible here without reserve()'s
        # assert: the default decision checked the pool just above, and
        # AdmissionPolicy.admit fixes the same pool-exhaustion check for
        # every policy (none of the registered ones overrides admit).
        used += size
        buf.used = used
        if used > buf.peak_used:
            buf.peak_used = used
        queue.items.append((packet, in_port.port_no))
        occupancy = queue.occupancy + size
        queue.occupancy = occupancy
        if packet.color == Color.RED:
            red = queue.red_bytes + size
            queue.red_bytes = red
            if red > queue.max_red_bytes:
                queue.max_red_bytes = red
        if occupancy > queue.max_occupancy:
            queue.max_occupancy = occupancy
        # Hook position is behaviour (the EventRing order feeds flight
        # dumps): after the queue accounting, before ECN marking.
        audit = self.audit
        if audit is not None:
            audit.on_enqueue(self, packet, egress_no)

        # 3. ECN marking on the instantaneous (post-enqueue) queue length.
        ecn = self.ecn
        if ecn is not None and packet.ecn_capable and not packet.ce:
            # StepEcn.should_mark, open-coded for the common scheme.
            if (
                occupancy > ecn.k_bytes
                if type(ecn) is StepEcn
                else ecn.should_mark(occupancy)
            ):
                packet.ce = True
                self.stats.ecn_marks += 1

        # 4. PFC ingress accounting.
        if pfc is not None:
            pfc.on_admit(in_port.port_no, size)

        port = self.ports[egress_no]
        if not port.busy and not port.paused:
            port.kick()

    def _poll(self, port: Port) -> Optional[Packet]:
        port_queues = self._port_queues[port.port_no]
        nclasses = len(port_queues)
        if nclasses == 1:
            # EgressQueue.pop, open-coded.
            queue = port_queues[0]
            if not queue.items:
                return None
            entry = queue.items.popleft()
            psize = entry[0].size
            queue.occupancy -= psize
            queue.dequeued_bytes += psize
            if entry[0].color == Color.RED:
                queue.red_bytes -= psize
        else:
            start = self._rr[port.port_no]
            entry = None
            for offset in range(nclasses):
                idx = (start + offset) % nclasses
                queue = port_queues[idx]
                entry = queue.pop()
                if entry is not None:
                    self._rr[port.port_no] = (idx + 1) % nclasses
                    break
        if entry is None:
            return None
        packet, ingress_no = entry
        # SharedBuffer.release, open-coded (keeps the under-run check).
        buf = self.buffer
        buf.used -= packet.size
        if buf.used < 0:
            raise AssertionError("shared buffer under-run")
        # After the buffer release, before pfc.on_release (ring order).
        audit = self.audit
        if audit is not None:
            audit.on_dequeue(self, packet, port.port_no)
        if self.pfc is not None:
            self.pfc.on_release(ingress_no, packet.size)
        if (
            self.config.int_enabled
            and packet.kind == PacketKind.DATA
            and packet.int_records is not None
        ):
            qlen = sum(q.occupancy for q in port_queues)
            packet.add_int_record(
                IntRecord(qlen, port.tx_bytes, self.engine.now, port.rate_bps)
            )
        return packet

    # -- helpers ---------------------------------------------------------------------

    def _drop(self, packet: Packet, reason: str, queue: EgressQueue,
              port_occupancy: Optional[int] = None) -> None:
        """Account a dropped packet. ``reason`` is one of ``"color"``
        (red over threshold K), ``"dynamic"`` (dynamic threshold) or
        ``"pool"`` (shared pool exhausted)."""
        self.stats.count_drop(packet)
        if packet.color == Color.RED:
            self.drops_red += 1
        else:
            self.drops_green += 1
        if self.audit is not None:
            self.audit.on_drop(self, packet, queue, reason, port_occupancy)
        # The switch is the packet's terminal point: recycle it.
        recycle(packet)

    def max_queue_occupancy(self) -> int:
        return max((q.max_occupancy for q in self.queues), default=0)

    def max_red_occupancy(self) -> int:
        return max((q.max_red_bytes for q in self.queues), default=0)
