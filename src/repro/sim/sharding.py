"""Spatial sharding: one fabric, many engines, bit-exact results.

Partitions a leaf-spine scenario across ``N`` shard workers — each a
full :class:`repro.sim.engine.Engine` in its own process (or inline,
see below) — synchronized by *conservative lookahead*: every cut link
(a link whose endpoints live in different shards) has a propagation
delay, and the minimum cut-link delay ``L`` bounds how far any shard
may causally outrun the others. The coordinator repeatedly grants all
workers a window ``[now, U]`` with ``U = min(target, gmin + L - 1)``,
where ``gmin`` is the earliest pending event or staged cross-shard
message anywhere; a packet emitted at ``t >= gmin`` arrives at another
shard at ``t + delay >= gmin + L > U``, so cross-shard traffic is
always deliverable at the *next* barrier and no shard ever schedules
into its past.

Design choices that make the sharded run reproduce the single-core
fingerprint bit-for-bit (CI-enforced, ``tests/test_determinism.py``):

- **Full topology replica per shard.** Every worker builds the entire
  network with identical construction order, names, seeds and RNG
  registry, and runs the *identical* workload ``schedule()`` — flow
  ids, specs and RNG draws agree across shards by construction. The
  replica is assembled by the same harness functions as a single-core
  run (``repro.experiments.scenarios``: auditor, faults, traffic,
  telemetry, ``finish_run``), not by a copy of them, under the run
  control the coordinator resolved.
  Ownership (ToR ``i`` -> shard ``i % N``, spine ``j`` -> shard
  ``(num_tors + j) % N``, hosts follow their ToR) only decides which
  devices carry live traffic; unowned replicas are inert because every
  path into them crosses a cut link first.
- **Cut-link proxies.** A locally-owned port whose peer is remote is
  retargeted to :class:`CutPort` via ``__class__`` assignment (same
  slot layout as :class:`~repro.net.link.Port`): instead of scheduling
  local delivery it appends ``(cut_id, arrival_ns, wire_seq, kind,
  wire)`` to the shard outbox, using the packet pool's flat tuple
  encoding (:func:`repro.net.packet.packet_to_wire`).
- **Decomposable tie-break.** The engine orders same-nanosecond wire
  arrivals by the ``WIRE_SEQ_BASE`` key — ``(emitting port's
  construction rank, per-port FIFO index)`` — not by global push order
  (see ``repro.net.link``). The key is a pure function of state the
  emitting shard owns, so a :class:`CutPort` stamps the *identical*
  heap key the single-core run would have used, and the receiving
  worker pushes the staged entry verbatim: cross-shard arrivals land
  in exactly the single-core position at any scale, with no
  reconstruction. The coordinator stages messages sorted by
  ``(arrival_ns, wire_seq)`` — the heap's own order, independent of
  worker timing, process scheduling or pipe arrival order.
- **Coordinator-driven liveness.** The queue sampler and the drain
  loop of :func:`repro.experiments.scenarios.run_scenario` depend on
  *global* flow completion, which no single shard can see. Workers
  report completions at each barrier; the coordinator replays the
  exact single-core predicates (sampler tick cadence, 50 ms drain
  chunks, hard cap) and tells workers when the sampler dies. A window
  never extends past ``pending_tick + L - 1 < pending_tick +
  interval``, so a tick whose reschedule must be revoked is always
  still pending at the next barrier — retroactive stop is safe.
- **Event-count parity.** Replica-side bookkeeping events (flow
  creation in non-source shards, secondary fault applications) are
  counted as artifacts and subtracted, as are the duplicate sampler
  ticks of shards 1..N-1, so the merged ``events_processed`` equals
  the single-core count exactly.

Every transport family shards exactly, including the RoCE RED/ECN
family: each switch owns a name-seeded ECN RNG stream
(``derive_seed(seed, "ecn.<switch>")`` in ``build_network``), so every
replica derives the same streams and only the owning shard draws from
them — no cross-shard RNG interleaving exists to replay. Audited or
telemetry-attached runs add per-shard observer events to the merged
event count (docs/PERFORMANCE.md); what cannot shard is refused by
``repro.experiments.scenarios.MODE_CONFLICTS``.

Workers default to one OS process per shard (fork-preferring, same
policy as the experiment pool). When sharding is requested *inside* a
daemonic pool worker — which cannot spawn children — or when
``TLT_SHARD_INLINE=1``, the same worker objects run inline in the
coordinator process: identical barrier schedule, identical results,
no parallelism (used by tests and nested sweeps).
"""

from __future__ import annotations

import gc
import multiprocessing as mp
import os
import time
from bisect import bisect_left, insort
from typing import Dict, List, Optional, Set, Tuple

from repro.audit import AuditError
from repro.experiments import manifest as run_manifest
from repro.experiments.scenarios import (
    ScenarioResult,
    attach_auditor,
    attach_telemetry,
    build_network,
    endpoint_settings,
    finish_run,
    install_faults,
    schedule_traffic,
)
from repro.net.link import Port
from repro.net.packet import packet_from_wire, packet_to_wire, recycle
from repro.sim.engine import _GC_RUN_THRESHOLDS
from repro.sim.units import MILLIS, tx_time_ns
from repro.stats.collector import FlowRecord, NetStats
from repro.transport.registry import create_flow

#: Outbox/staged message kinds.
MSG_PACKET = 0
MSG_PAUSE = 1

#: NetStats integer counters summed verbatim across shards. Each is
#: incremented only where real traffic flows (owned devices / owned
#: senders), so the shard-wise sums partition the single-core totals.
_COUNTER_FIELDS = (
    "green_data_packets",
    "red_data_packets",
    "green_data_bytes",
    "red_data_bytes",
    "clocking_bytes",
    "clocking_packets",
    "drops_green",
    "drops_red",
    "drops_green_data",
    "drops_red_data",
    "drops_green_ctrl",
    "drops_red_ctrl",
    "drop_bytes",
    "drops_fault",
    "drops_fault_green",
    "drops_fault_red",
    "drops_fault_green_data",
    "drops_fault_bytes",
    "ecn_marks",
    "pause_frames",
    "resume_frames",
    "timeouts",
    "fast_retransmits",
)

_RESERVOIR_FIELDS = ("rtt_samples_fg", "rtt_samples_bg", "delivery_samples")


def _collector_off() -> tuple:
    """One full collection (the previous run's garbage; see
    run_scenario), then the collector off: what ``Engine.run`` does per
    call, held across the barrier loop. Returns what to restore."""
    gc.collect()
    saved = (gc.get_threshold(), gc.isenabled())
    gc.set_threshold(*_GC_RUN_THRESHOLDS)
    gc.disable()
    return saved


def _collector_back(saved: Optional[tuple]) -> None:
    if saved is not None:
        gc.set_threshold(*saved[0])
        if saved[1]:
            gc.enable()


class ShardPlan:
    """Deterministic device -> shard ownership for one leaf-spine fabric.

    ToR subtrees (a ToR and its hosts) round-robin across shards;
    spines round-robin with an offset so small fabrics don't pile the
    spines onto shard 0. Shards may be empty when ``num_shards``
    exceeds the number of switch groups — they still run (inert
    replicas), keeping the barrier protocol uniform.
    """

    def __init__(self, num_shards: int, num_spines: int, num_tors: int, hosts_per_tor: int):
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self.num_shards = num_shards
        self.num_spines = num_spines
        self.num_tors = num_tors
        self.hosts_per_tor = hosts_per_tor

    def tor_owner(self, tor_idx: int) -> int:
        return tor_idx % self.num_shards

    def spine_owner(self, spine_idx: int) -> int:
        return (self.num_tors + spine_idx) % self.num_shards

    def host_owner(self, host_id: int) -> int:
        return self.tor_owner(host_id // self.hosts_per_tor)

    def device_owner(self, device) -> int:
        host_id = getattr(device, "host_id", None)
        if host_id is not None:
            return self.host_owner(host_id)
        switch_id = device.switch_id
        if switch_id < self.num_tors:
            return self.tor_owner(switch_id)
        return self.spine_owner(switch_id - self.num_tors)


class CutPort(Port):
    """A port whose peer lives in another shard.

    Same object layout as :class:`Port` (no extra slots), installed by
    ``__class__`` assignment on an already-connected port. Serialization
    (:meth:`Port.kick` and the inline continuation below) is untouched;
    only the hand-off differs: instead of pushing the propagation event
    onto the local heap, the finished packet is flat-encoded into the
    shard outbox stamped with its arrival time at the remote peer and
    its wire sequence key (the same ``WIRE_SEQ_BASE``-space key
    ``Port._tx_done`` would have used on a single engine — see
    ``repro.net.link``), and the local object recycled. PFC
    PAUSE/RESUME frames cross the same way (kind :data:`MSG_PAUSE`).
    """

    __slots__ = ()

    def _tx_done(self, packet) -> None:
        engine = self.engine
        seq = self.wire_seq
        self.wire_seq = seq + 1
        self.shard_out.append(
            (self.cut_id, engine.now + self.delay_ns, seq, MSG_PACKET, packet_to_wire(packet))
        )
        recycle(packet)
        self.busy = False
        # Inlined kick(), exactly as the base class.
        if self.paused or self.down:
            return
        packet = self.owner.poll(self)
        if packet is None:
            return
        self.busy = True
        self.tx_bytes += packet.size
        self.tx_packets += 1
        seq = engine._seq
        engine._seq = seq + 1
        push, heap = self._epush, self._eheap
        push(
            heap,
            (engine.now + tx_time_ns(packet.size, self.rate_bps), seq, self._tx_done, (packet,)),
        )

    def send_pause(self, duration_ns: int) -> None:
        seq = self.wire_seq
        self.wire_seq = seq + 1
        self.shard_out.append(
            (self.cut_id, self.engine.now + self.delay_ns, seq, MSG_PAUSE, duration_ns)
        )


class _ShardWorker:
    """One shard's replica: network, engine, workload and observers.

    Lives either in a forked worker process (driven by
    :func:`_worker_main` over a pipe) or inline in the coordinator.
    ``setup()`` assembles the replica from the harness functions of
    :mod:`repro.experiments.scenarios`, in ``run_scenario``'s order;
    what is the shard's own goes in as arguments: which fault events it
    arms, a ``create`` that filters by ownership, a sampler the
    coordinator stops, the ``_sh<i>`` telemetry run id. ``control`` is
    the coordinator's resolved run control: a worker process reads no
    run-control variable. The coordinator steps the worker with
    ``window()`` and collects ``finish()``.
    """

    def __init__(
        self,
        config,
        control,
        shard_index: int,
        manage_gc: bool = True,
        backend: Optional[str] = None,
    ):
        self.config = config
        self.control = control
        self.shard_index = shard_index
        self.manage_gc = manage_gc
        # The coordinator's resolved backend: every shard must run the
        # same engine/kernel implementation, even if the worker process
        # inherits a different TLT_BACKEND environment.
        self.backend = backend
        self.outbox: List[tuple] = []
        self.completions: List[Tuple[int, int]] = []
        self.artifact_events = 0
        self.sample_ticks = 0
        self.queue_samples: List[Tuple[int, int, int, int]] = []
        self._sampler_stopped = False
        self._sampler_event = None
        self._gc_saved = None

    # -- assembly ---------------------------------------------------------------

    def setup(self) -> Dict:
        config = self.config
        from repro.sim import backend as backend_mod

        if self.backend is not None:
            backend_mod.set_backend(self.backend)
        net = self.net = build_network(config)
        engine = self.engine = net.engine
        scale = config.scale
        plan = self.plan = ShardPlan(
            self.control.shards, scale.num_spines, scale.num_tors, scale.hosts_per_tor
        )
        mine = self.shard_index

        # Cut registry: enumerate ports in deterministic construction
        # order so every shard assigns identical cut ids. The registry
        # holds the TX-side port object of every cut direction — in the
        # owning shard it becomes the live CutPort, everywhere else it
        # is the replica used to resolve the remote peer on delivery.
        cut_ports = self.cut_ports = []
        route: List[int] = []
        lookahead: Optional[int] = None
        for device in list(net.hosts) + list(net.switches):
            dev_owner = plan.device_owner(device)
            for port in device.ports:
                peer = port.peer
                if peer is None:
                    continue
                peer_owner = plan.device_owner(peer.owner)
                if peer_owner == dev_owner:
                    continue
                port.cut_id = len(cut_ports)
                cut_ports.append(port)
                route.append(peer_owner)
                if lookahead is None or port.delay_ns < lookahead:
                    lookahead = port.delay_ns
                if dev_owner == mine:
                    port.shard_out = self.outbox
                    port.__class__ = CutPort
                    # kick() pushes the _tx_cb slot (bound — possibly
                    # to a compiled kernel — at construction); rebind
                    # it so the outbox override actually runs.
                    port._tx_cb = port._tx_done

        self.auditor = attach_auditor(net, self.control)
        self.fault_controller = install_faults(net, self.control, self._arm_faults)

        transport, tconfig, tlt_cfg = endpoint_settings(config)
        host_owner = plan.host_owner

        def create(spec) -> None:
            src_local = host_owner(spec.src) == mine
            if not src_local:
                # This creation event executes once per shard but only
                # once in a single-core run: every non-source execution
                # is a replica artifact.
                self.artifact_events += 1
                if host_owner(spec.dst) != mine:
                    return
            spec.on_complete_rx = self._flow_completed
            sender, _receiver = create_flow(transport, net, spec, tconfig, tlt_cfg)
            if not src_local:
                # Receiver-only shard: keep the receiver (and an inert
                # FlowRecord for its end_rx_ns) but never let the
                # replica sender transmit.
                sender._start_event.cancel()
                net.stats.foreign_src_flows.add(spec.flow_id)

        end_of_traffic, total_flows = schedule_traffic(config, net, create)
        self.end_of_traffic = end_of_traffic
        horizon = end_of_traffic + config.drain_ns

        # Queue sampler: fires on the single-core cadence but always
        # tentatively reschedules — the liveness predicate is global,
        # so the *coordinator* replays it and revokes the pending tick
        # (via ``stop_sampler``) at the barrier after the tick where the
        # single-core sampler would have stopped. Lookahead guarantees
        # that pending tick cannot fire before the revocation arrives.
        self._sampled_queues = [
            (sw_idx, q_idx, queue)
            for sw_idx, switch in enumerate(net.switches)
            for q_idx, queue in enumerate(switch.queues)
        ]
        self._sampler_event = engine.schedule(
            config.queue_sample_interval_ns, self._sample_queues
        )

        self.telemetry = attach_telemetry(
            config, net, self.control,
            lambda: engine.now < end_of_traffic or not self._sampler_stopped,
            self.fault_controller, run_id_suffix=f"_sh{mine}",
        )

        if self.manage_gc:
            self._gc_saved = _collector_off()

        return {
            "backend": backend_mod.current_backend(),
            "route": route,
            "lookahead": lookahead,
            "end_of_traffic": end_of_traffic,
            "horizon": horizon,
            "hard_cap": horizon + 10 * config.drain_ns,
            "flows": total_flows,
            "interval": config.queue_sample_interval_ns,
            "next": engine.peek_time(),
            "pending": engine.pending,
        }

    # -- helpers ----------------------------------------------------------------

    def _fault_shards(self, event) -> Tuple[Set[int], int]:
        """Shards that must apply ``event`` locally, and the primary.

        The primary (the named device's owner) applies it exactly as a
        single-core run would. Link and switch failures also touch the
        *peer* port of each cut link, so the peer's owner applies the
        event too (a secondary, counted as an artifact); its replica-
        side half of the work is inert. Corruption and PFC storms act
        only on the named device.
        """
        plan = self.plan
        name, _, port_no = event.target.partition(":")
        device = self.net.device(name)
        primary = plan.device_owner(device)
        involved = {primary}
        if event.kind in ("link_down", "link_up") and port_no:
            port = device.ports[int(port_no)]
            if port.peer is not None:
                involved.add(plan.device_owner(port.peer.owner))
        elif event.kind in ("switch_down", "switch_up"):
            for port in device.ports:
                if port.peer is not None:
                    involved.add(plan.device_owner(port.peer.owner))
        return involved, primary

    def _arm_faults(self, controller) -> None:
        engine = self.engine
        mine = self.shard_index
        for event in controller.schedule.events:
            involved, primary = self._fault_shards(event)
            if mine == primary:
                engine.schedule_at(event.time_ns, controller._apply, event)
            elif mine in involved:
                engine.schedule_at(event.time_ns, self._apply_secondary_fault, event)

    def _apply_secondary_fault(self, event) -> None:
        self.artifact_events += 1
        self.fault_controller._apply(event)

    def _flow_completed(self, record) -> None:
        self.completions.append((self.engine.now, record.flow_id))

    def _sample_queues(self) -> None:
        tick = self.sample_ticks
        self.sample_ticks = tick + 1
        samples = self.queue_samples
        for sw_idx, q_idx, queue in self._sampled_queues:
            occ = queue.occupancy
            if occ:
                samples.append((tick, sw_idx, q_idx, occ))
        if not self._sampler_stopped:
            self._sampler_event = self.engine.schedule(
                self.config.queue_sample_interval_ns, self._sample_queues
            )

    def _stop_sampler(self) -> None:
        if self._sampler_stopped:
            return
        self._sampler_stopped = True
        if self._sampler_event is not None:
            self._sampler_event.cancel()
            self._sampler_event = None

    # -- stepping ---------------------------------------------------------------

    def window(self, until: int, messages: List[tuple], stop_sampler: bool) -> Dict:
        """Apply staged cross-shard messages, run events through ``until``.

        Each message carries the emitting port's wire sequence key, so
        a remote arrival lands on the local heap as exactly the
        ``(time, seq, deliver, args)`` entry the single-core run would
        have pushed: same-nanosecond ordering against local events and
        against other remote arrivals is decided by the key alone, not
        by staging or scheduling order.
        """
        if stop_sampler:
            self._stop_sampler()
        engine = self.engine
        cut_ports = self.cut_ports
        push, heap = engine._pusher
        for t, seq, cut_id, kind, payload in messages:
            port = cut_ports[cut_id]
            if kind == MSG_PACKET:
                push(heap, (t, seq, port._peer_deliver, (packet_from_wire(payload),)))
            else:
                peer = port.peer
                push(heap, (t, seq, peer.owner.receive_pause, (payload, peer)))
        try:
            engine.run_window(until)
        except BaseException as error:
            self._finish_observers(error)
            raise
        out = list(self.outbox)
        del self.outbox[:]  # CutPorts alias this list; clear in place
        done = self.completions
        self.completions = []
        return {
            "next": engine.peek_time(),
            "out": out,
            "done": done,
            "pending": engine.pending,
        }

    # -- teardown ---------------------------------------------------------------

    def _finish_observers(self, error: Optional[BaseException] = None) -> Optional[Dict]:
        _collector_back(self._gc_saved)
        self._gc_saved = None
        return finish_run(self.net, self.control, self.auditor, self.telemetry, error,
                          config=self.config, shard=self.shard_index)

    def finish(self) -> Dict:
        manifest = self._finish_observers()
        net = self.net
        stats = net.stats
        flows = [
            (
                r.flow_id,
                r.src,
                r.dst,
                r.size,
                r.start_ns,
                r.group,
                r.end_rx_ns,
                r.end_ack_ns,
                r.timeouts,
                r.retx_bytes,
                r.tx_bytes,
                r.final_rto_ns,
                r.final_srtt_ns,
            )
            for r in stats.flows.values()
        ]
        return {
            "counters": {name: getattr(stats, name) for name in _COUNTER_FIELDS},
            "flows": flows,
            "foreign": sorted(stats.foreign_src_flows),
            "reservoirs": {
                name: (list(getattr(stats, name)._samples), getattr(stats, name).seen)
                for name in _RESERVOIR_FIELDS
            },
            "queue_samples": self.queue_samples,
            "ticks": self.sample_ticks,
            "events": self.engine.events_processed,
            "artifacts": self.artifact_events,
            "paused_ns": net.total_paused_ns(),
            # Flowlet/reroute counts: only the owning shard routes real
            # packets through a switch (replicas stay at zero), so the
            # cross-shard sum counts each switch exactly once.
            "path_churn": [
                sum(sw.fib.flowlets for sw in net.switches),
                sum(sw.fib.reroutes for sw in net.switches),
            ],
            "port_count": sum(
                len(d.ports) for d in list(net.switches) + list(net.hosts)
            ),
            "now": self.engine.now,
            "manifest": manifest,  # this shard's own cost: the coordinator's clock misses it
        }


# -- worker drivers --------------------------------------------------------------


def _worker_main(conn, config, control, shard_index: int, backend: str) -> None:
    """Shard worker process body: setup, then serve barrier commands."""
    try:
        worker = _ShardWorker(config, control, shard_index, backend=backend)
        conn.send(("ready", worker.setup()))
        while True:
            msg = conn.recv()
            op = msg[0]
            if op == "win":
                conn.send(("ok", worker.window(msg[1], msg[2], msg[3])))
            elif op == "fin":
                conn.send(("done", worker.finish()))
                return
            else:  # "stop" or unknown: exit quietly
                return
    except BaseException as error:
        import traceback

        try:
            if isinstance(error, AuditError):
                # Finished by the worker already (flight recorder,
                # streams); the coordinator raises it again as itself.
                conn.send(("audit_error", error.to_dict()))
            else:
                conn.send(("error", traceback.format_exc(limit=30)))
        except Exception:
            pass
    finally:
        try:
            conn.close()
        except Exception:
            pass


class _ProcHandle:
    """Pipe-connected shard worker process."""

    def __init__(self, ctx, config, control, shard_index: int, backend: str):
        self.shard_index = shard_index
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(
            target=_worker_main,
            args=(child, config, control, shard_index, backend),
            daemon=True,
        )
        self.proc.start()
        child.close()

    def send(self, msg) -> None:
        self.conn.send(msg)

    def recv(self):
        while not self.conn.poll(1.0):
            if not self.proc.is_alive():
                raise RuntimeError(
                    f"shard {self.shard_index} worker died "
                    f"(exit code {self.proc.exitcode})"
                )
        try:
            tag, payload = self.conn.recv()
        except (EOFError, OSError):
            raise RuntimeError(
                f"shard {self.shard_index} worker closed its pipe "
                f"(exit code {self.proc.exitcode})"
            ) from None
        if tag == "audit_error":
            raise AuditError(payload["violations"], payload["trace"], payload["time_ns"])
        if tag == "error":
            raise RuntimeError(
                f"shard {self.shard_index} worker failed:\n{payload}"
            )
        return payload

    def stop(self) -> None:
        try:
            self.conn.close()
        except Exception:
            pass
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(timeout=2)
            if self.proc.is_alive():
                self.proc.kill()
                self.proc.join(timeout=2)
        else:
            self.proc.join(timeout=2)


class _InlineHandle:
    """Same command protocol, worker runs in the coordinator process."""

    def __init__(self, worker: _ShardWorker):
        self.worker = worker
        self._reply = None

    def send(self, msg) -> None:
        op = msg[0]
        if op == "setup":
            self._reply = self.worker.setup()
        elif op == "win":
            self._reply = self.worker.window(msg[1], msg[2], msg[3])
        elif op == "fin":
            self._reply = self.worker.finish()

    def recv(self):
        reply, self._reply = self._reply, None
        return reply

    def stop(self) -> None:
        pass


def _use_inline() -> bool:
    flag = os.environ.get("TLT_SHARD_INLINE", "")
    if flag not in ("", "0"):
        return True
    # A daemonic pool worker (tlt-experiment --jobs N) cannot spawn
    # children; run the shards inline instead of crashing.
    return mp.current_process().daemon


# -- merged result shims ----------------------------------------------------------


class _ShardedEngine:
    """Engine facade over the merged run (events + final clock)."""

    def __init__(self, events_processed: int, now: int):
        self.events_processed = events_processed
        self.now = now


class _ShardedNetwork:
    """Network facade exposing the merged stats and pause accounting.

    ``hosts``/``switches`` are empty: the devices live in the worker
    processes and die with them; result consumers (metrics reducers,
    fingerprints, reports) only read stats and aggregates.
    """

    def __init__(self, engine: _ShardedEngine, stats, paused_ns: int, port_count: int,
                 path_churn=(0, 0)):
        self.engine = engine
        self.stats = stats
        self.hosts: list = []
        self.switches: list = []
        self._paused_ns = paused_ns
        self._port_count = port_count
        #: (flowlets, reroutes) summed across shards; summary_row reads
        #: these since the per-switch FIBs died with the workers.
        self.fib_flowlets, self.fib_reroutes = path_churn

    def total_pause_frames(self) -> int:
        return self.stats.pause_frames

    def total_paused_ns(self) -> int:
        return self._paused_ns

    def avg_pause_fraction(self, duration_ns: int) -> float:
        if not self._port_count or duration_ns <= 0:
            return 0.0
        return self._paused_ns / (self._port_count * duration_ns)


def _merge(config, payloads: List[Dict], duration_ns: int):
    """Deterministically fold per-shard payloads into one ScenarioResult."""
    stats = NetStats(seed=config.seed)
    for name in _COUNTER_FIELDS:
        setattr(stats, name, sum(p["counters"][name] for p in payloads))

    # Flow records: the source-owner shard holds the canonical record
    # (sender-side counters); a cross-shard flow's end_rx_ns lives only
    # in the destination shard's inert replica and is overlaid.
    canonical: Dict[int, tuple] = {}
    receiver_end: Dict[int, int] = {}
    for p in payloads:
        foreign = set(p["foreign"])
        for rec in p["flows"]:
            fid = rec[0]
            if fid in foreign:
                if rec[6] is not None:
                    receiver_end[fid] = rec[6]
            else:
                canonical[fid] = rec
    for fid in sorted(canonical):
        t = canonical[fid]
        record = FlowRecord(t[0], t[1], t[2], t[3], t[4], t[5])
        record.end_rx_ns = t[6] if t[6] is not None else receiver_end.get(fid)
        record.end_ack_ns = t[7]
        record.timeouts = t[8]
        record.retx_bytes = t[9]
        record.tx_bytes = t[10]
        record.final_rto_ns = t[11]
        record.final_srtt_ns = t[12]
        stats.add_flow(record)

    # Reservoirs: each sample is recorded by exactly one shard (RTT by
    # the live sender, delivery by the live receiver), so shard-order
    # concatenation is the exact single-core multiset as long as no
    # reservoir overflowed its capacity (documented limit).
    for name in _RESERVOIR_FIELDS:
        reservoir = getattr(stats, name)
        for p in payloads:
            samples, seen = p["reservoirs"][name]
            reservoir._samples.extend(samples)
            reservoir.seen += seen

    # Queue samples: per-shard entries are (tick, switch_idx, queue_idx,
    # occupancy); sorting recovers the single-core iteration order
    # (switches then queues, per tick). Replica queues are always empty
    # and never sampled, so there are no duplicates.
    merged_q = sorted(tup for p in payloads for tup in p["queue_samples"])
    queue_samples = [occ for (_t, _s, _q, occ) in merged_q]

    ticks = [p["ticks"] for p in payloads]
    events = (
        sum(p["events"] for p in payloads)
        - sum(p["artifacts"] for p in payloads)
        - (sum(ticks) - ticks[0])
    )
    engine = _ShardedEngine(events, duration_ns)
    net = _ShardedNetwork(
        engine,
        stats,
        paused_ns=sum(p["paused_ns"] for p in payloads),
        port_count=payloads[0]["port_count"],
        path_churn=(
            sum(p["path_churn"][0] for p in payloads),
            sum(p["path_churn"][1] for p in payloads),
        ),
    )
    return ScenarioResult(config, net, duration_ns, queue_samples, None, None, None)


# -- coordinator -------------------------------------------------------------------


def run_scenario_sharded(config, control):
    """Run one scenario across ``control.shards`` conservative-lookahead
    shards, under the resolved run ``control`` (``run_scenario``
    dispatches here; the workers receive it and read no environment).

    Bit-exact contract: for supported configurations (see module
    docstring) the returned :class:`ScenarioResult` carries the same
    stats, duration, queue samples and event count as
    ``run_scenario(config)`` on a single engine.
    """
    num_shards = control.shards
    from repro.sim import backend as backend_mod

    started = (time.perf_counter(), time.process_time(), 0)  # as Network.stamp
    backend_name = backend_mod.current_backend()
    inline = _use_inline()
    handles: List = []
    gc_saved = None
    try:
        if inline:
            handles = [
                _InlineHandle(
                    _ShardWorker(config, control, i, manage_gc=False, backend=backend_name)
                )
                for i in range(num_shards)
            ]
            for handle in handles:
                handle.send(("setup",))
            metas = [handle.recv() for handle in handles]
            gc_saved = _collector_off()  # for all inline shards
        else:
            from repro.experiments.parallel import _mp_context

            ctx = _mp_context()
            handles = [
                _ProcHandle(ctx, config, control, i, backend_name)
                for i in range(num_shards)
            ]
            metas = [handle.recv() for handle in handles]

        meta = metas[0]
        for i, other in enumerate(metas[1:], 1):
            if other["flows"] != meta["flows"] or len(other["route"]) != len(meta["route"]):
                raise RuntimeError(
                    f"shard {i} replica diverged during setup "
                    f"(flows {other['flows']} vs {meta['flows']})"
                )
        for i, other in enumerate(metas):
            if other["backend"] != backend_name:
                raise RuntimeError(
                    f"shard {i} selected backend {other['backend']!r}, "
                    f"coordinator expects {backend_name!r}"
                )
        route = meta["route"]
        lookahead = meta["lookahead"] or 1
        end_of_traffic = meta["end_of_traffic"]
        horizon = meta["horizon"]
        hard_cap = meta["hard_cap"]
        total_flows = meta["flows"]
        interval = meta["interval"]

        next_times: List[Optional[int]] = [m["next"] for m in metas]
        pendings: List[int] = [m["pending"] for m in metas]
        staged: List[List[tuple]] = [[] for _ in range(num_shards)]
        completions: List[int] = []  # sorted end_rx_ns of finished flows
        completed = 0
        now = 0
        next_tick = interval
        sampler_alive = True
        # The manifest's ``shard`` section: barrier windows, cross-shard
        # packets + PAUSE frames, seconds sending windows and blocked on
        # each shard's reply (inline shards run inside ``send``).
        windows = messages = 0
        send_s = 0.0
        wait_s = [0.0] * num_shards

        def gmin() -> Optional[int]:
            g: Optional[int] = None
            for t in next_times:
                if t is not None and (g is None or t < g):
                    g = t
            for batch in staged:
                for msg in batch:
                    if g is None or msg[0] < g:
                        g = msg[0]
            return g

        def issue(until: int) -> None:
            nonlocal now, completed, staged, sampler_alive, next_tick
            nonlocal windows, messages, send_s
            batches = staged
            staged = [[] for _ in range(num_shards)]
            stop = not sampler_alive
            windows += 1
            mark = time.perf_counter()
            for i, handle in enumerate(handles):
                batch = batches[i]
                batch.sort()  # (arrival_ns, wire_seq, ...): the heap's own order
                handle.send(("win", until, batch, stop))
            send_s += time.perf_counter() - mark
            for i, handle in enumerate(handles):
                mark = time.perf_counter()
                reply = handle.recv()
                wait_s[i] += time.perf_counter() - mark
                next_times[i] = reply["next"]
                pendings[i] = reply["pending"]
                for t_done, _flow_id in reply["done"]:
                    insort(completions, t_done)
                    completed += 1
                messages += len(reply["out"])
                for cut_id, t, seq, kind, payload in reply["out"]:
                    staged[route[cut_id]].append((t, seq, cut_id, kind, payload))
            now = until
            # Replay the single-core sampler liveness predicate for every
            # tick this window reached. Completion times equal to the
            # tick don't count: the delivery event carries a later
            # sequence number than the tick, so the single-core sampler
            # observed the flow as still incomplete.
            while sampler_alive and next_tick <= now:
                if (
                    next_tick < end_of_traffic
                    or total_flows - bisect_left(completions, next_tick) > 0
                ):
                    next_tick += interval
                else:
                    sampler_alive = False

        def advance(target: int) -> None:
            while now < target:
                g = gmin()
                until = target if g is None else min(target, g + lookahead - 1)
                if until <= now:
                    until = now + 1
                issue(until)

        advance(horizon)
        while total_flows - completed > 0 and now < hard_cap and any(pendings):
            advance(min(now + 50 * MILLIS, hard_cap))

        _collector_back(gc_saved)
        gc_saved = None
        for handle in handles:
            handle.send(("fin",))
        payloads = [handle.recv() for handle in handles]
    finally:
        _collector_back(gc_saved)
        for handle in handles:
            handle.stop()

    result = _merge(config, payloads, duration_ns=now)
    # One run, one manifest: shard 0's, with the merged run's counts, the
    # coordinator's clocks and the suffix-less run id.
    parts = [payload["manifest"] for payload in payloads]
    stats = result.net.stats
    merged = result.manifest = {
        **parts[0],
        **run_manifest.cost(started, result.net.engine.events_processed),
        "run_id": parts[0]["run_id"].removesuffix("_sh0"),
        "flows": stats.flow_count(),
        "incomplete": stats.incomplete_flows(),
        "shard": {
            "windows": windows, "messages": messages, "send_s": round(send_s, 6),
            "wait_s": [round(seconds, 6) for seconds in wait_s],
            "cpu_s": [part["cpu_s"] for part in parts],
            "events": [part["events"] for part in parts],
        },
    }
    merged["peak_rss_mb"] = max(
        merged["peak_rss_mb"], *(part["peak_rss_mb"] for part in parts))
    run_manifest.LOG.append(merged)
    if control.telemetry is not None:
        from repro.telemetry.core import write_manifest

        write_manifest(control.telemetry["out_dir"], merged)
    return result
