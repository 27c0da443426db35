"""Engine-clocked samplers: periodic reads of live simulation state.

Every sampler is an event on the engine's hierarchical timer wheel
(:mod:`repro.sim.timerwheel` via ``Engine.schedule_timer``), firing on
**sim time** — never wall-clock — so a run with telemetry attached
replays the exact event sequence of a run without it. Samplers only
read state; they never mutate queues, flows or counters, and they never
touch an RNG, so determinism fingerprints stay bit-identical with
telemetry on.

Lifecycle: a sampler re-arms itself each tick until its ``active``
predicate says the run is over (scenario runs pass "traffic window
still open or stragglers remain" — the same predicate the Fig-11 queue
sampler uses, so telemetry never extends a run), or until
:meth:`Sampler.stop`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.sim.engine import Engine
from repro.transport.reliable import ReliableSender

#: ``emit(stream, row)`` — receives one flat dict per sampled series.
EmitFn = Callable[[str, Dict], None]


def _null_emit(stream: str, row: Dict) -> None:
    pass


class Sampler:
    """Base class: self-rescheduling timer-wheel sampling loop."""

    #: Stream name stamped on every emitted row.
    stream = "sampler"

    def __init__(
        self,
        engine: Engine,
        interval_ns: int,
        emit: Optional[EmitFn] = None,
        active: Optional[Callable[[], bool]] = None,
        start: bool = True,
    ):
        if interval_ns <= 0:
            raise ValueError("interval must be positive")
        self.engine = engine
        self.interval_ns = interval_ns
        self.emit = emit if emit is not None else _null_emit
        self._active = active
        self._event = None
        self._stopped = False
        if start:
            self.start()

    @property
    def event_pending(self) -> bool:
        """True while a re-arm is outstanding on the wheel."""
        return self._event is not None

    def start(self) -> None:
        if self._event is None and not self._stopped:
            self._event = self.engine.schedule_timer(self.interval_ns, self._tick)

    def _tick(self) -> None:
        self._event = None
        if self._stopped:
            return
        self.sample()
        if self._active is not None and not self._active():
            self._stopped = True
            return
        self._event = self.engine.schedule_timer(self.interval_ns, self._tick)

    def stop(self) -> None:
        self._stopped = True
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def sample(self) -> None:
        raise NotImplementedError


class QueueDepthSampler(Sampler):
    """Per-egress-queue depth, split green vs red against threshold K.

    Emits one row per non-empty queue: the Fig-11 signal (how far red
    occupancy tracks K while green stays thin). Empty queues are elided;
    consumers treat a missing (switch, port, tclass) at a tick as zero.
    """

    stream = "queue"

    def __init__(self, net, interval_ns: int, emit: EmitFn, registry, **kwargs):
        self._switches = list(net.switches)
        self._g_occ = registry.gauge(
            "tlt_queue_occupancy_bytes",
            "Egress queue occupancy by color",
            ("switch", "port", "tclass", "color"),
        )
        self._h_depth = registry.histogram(
            "tlt_queue_depth_bytes", "Distribution of sampled non-empty queue depths",
        )
        super().__init__(net.engine, interval_ns, emit, **kwargs)

    def sample(self) -> None:
        emit = self.emit
        for switch in self._switches:
            k = switch.config.color_threshold_bytes
            for port_no, port_queues in enumerate(switch._port_queues):
                for tclass, queue in enumerate(port_queues):
                    occ = queue.occupancy
                    if not occ:
                        continue
                    red = queue.red_bytes
                    emit(self.stream, {
                        "switch": switch.name, "port": port_no, "tclass": tclass,
                        "occ": occ, "red": red, "green": occ - red, "k": k,
                    })
                    self._g_occ.labels(switch.name, port_no, tclass, "green").set(occ - red)
                    self._g_occ.labels(switch.name, port_no, tclass, "red").set(red)
                    self._h_depth.observe(occ)


class BufferOccupancySampler(Sampler):
    """Shared-buffer MMU occupancy per switch."""

    stream = "buffer"

    def __init__(self, net, interval_ns: int, emit: EmitFn, registry, **kwargs):
        self._switches = list(net.switches)
        self._g_used = registry.gauge(
            "tlt_buffer_used_bytes", "Shared buffer occupancy", ("switch",),
        )
        super().__init__(net.engine, interval_ns, emit, **kwargs)

    def sample(self) -> None:
        for switch in self._switches:
            buf = switch.buffer
            if not buf.used:
                continue
            self.emit(self.stream, {
                "switch": switch.name, "used": buf.used,
                "capacity": buf.capacity, "peak": buf.peak_used,
            })
            self._g_used.labels(switch.name).set(buf.used)


class PfcStateSampler(Sampler):
    """PFC pause state per port: XOFF-asserted ingresses and paused TX.

    Rows are emitted only for ports currently paused (their transmitter
    is XOFF'd by the peer) or asserting XOFF upstream — PFC is quiet in
    the common case and a dense all-ports stream would drown the signal.
    """

    stream = "pfc"

    def __init__(self, net, interval_ns: int, emit: EmitFn, registry, **kwargs):
        self._devices = list(net.switches) + list(net.hosts)
        self._g_paused = registry.gauge(
            "tlt_pfc_paused_ports", "Ports currently paused by PFC", ("device",),
        )
        super().__init__(net.engine, interval_ns, emit, **kwargs)

    def sample(self) -> None:
        for device in self._devices:
            paused_count = 0
            pfc = getattr(device, "pfc", None)
            for port in device.ports:
                asserted = pfc.asserted[port.port_no] if pfc else False
                if not (port.paused or asserted):
                    continue
                paused_count += port.paused
                self.emit(self.stream, {
                    "device": device.name, "port": port.port_no,
                    "paused": int(port.paused), "asserted": int(asserted),
                })
            self._g_paused.labels(device.name).set(paused_count)


class FlowStateSampler(Sampler):
    """Per-flow sender state: cwnd/rate, in-flight bytes, TLT and RTO arming.

    Samples every :class:`~repro.transport.reliable.ReliableSender` in
    each host's endpoint demux table; the family-specific columns are
    duck-typed: the TCP byte-stream family exposes ``cwnd``; the RoCE
    family exposes ``rate_ctrl`` (DCQCN) or ``hpcc.window``. Completed
    flows stop being sampled. At most ``max_flows`` senders are sampled
    per tick (deterministic host-then-flow order) to bound the per-tick
    cost at large scale.
    """

    stream = "flow"

    def __init__(self, net, interval_ns: int, emit: EmitFn, registry,
                 max_flows: int = 64, **kwargs):
        self._hosts = list(net.hosts)
        self.max_flows = max_flows
        self._g_active = registry.gauge(
            "tlt_active_flows", "Senders with unacked data in flight",
        )
        self._c_sampled = registry.counter(
            "tlt_flow_samples_total", "Per-flow telemetry rows emitted",
        )
        super().__init__(net.engine, interval_ns, emit, **kwargs)

    @staticmethod
    def _row(sender) -> Dict:
        # Core state is read directly: a renamed attribute must raise,
        # not silently empty the stream or pin rto_armed at 0.
        row: Dict = {
            "flow": sender.spec.flow_id,
            "group": sender.record.group,
            "inflight": sender.pipe,
            "rto_armed": int(sender.rto_armed),
        }
        cwnd = getattr(sender, "cwnd", None)
        if cwnd is None:
            hpcc = getattr(sender, "hpcc", None)
            if hpcc is not None:
                cwnd = int(hpcc.window)
            else:
                cwnd = getattr(sender, "window_cap_bytes", None)
        row["cwnd"] = cwnd
        rate_ctrl = getattr(sender, "rate_ctrl", None)
        row["rate_bps"] = int(rate_ctrl.rate_bps) if rate_ctrl is not None else None
        tlt = getattr(sender, "tlt", None) or getattr(sender, "tlt_rate", None)
        state = getattr(tlt, "state", None)
        if state is not None:
            # 1 while the window controller is armed to mark the next
            # transmission important (an important packet is otherwise
            # already in flight).
            row["tlt"] = int(getattr(state, "name", "") == "IMPORTANT")
        else:
            row["tlt"] = 1 if tlt is not None else None
        return row

    def sample(self) -> None:
        emitted = 0
        active = 0
        for host in self._hosts:
            # One receiver per flow ever received stays in the table:
            # pick the live senders first, then order those few.
            live = [endpoint for endpoint in host.endpoints.values()
                    if isinstance(endpoint, ReliableSender) and not endpoint.completed]
            live.sort(key=lambda sender: sender.spec.flow_id)
            active += len(live)
            for sender in live[:self.max_flows - emitted]:
                emitted += 1
                self.emit(self.stream, self._row(sender))
        self._g_active.set(active)
        self._c_sampled.inc(emitted)


class PolicySampler(Sampler):
    """Per-switch admission-policy state: policy name and live K.

    Static for the default Choudhury–Hahne + static-K configuration,
    but the adaptive-K controller retunes K during the run — this
    stream is how a retuning trajectory becomes visible next to the
    Fig-11 queue timelines.
    """

    stream = "policy"

    def __init__(self, net, interval_ns: int, emit: EmitFn, registry, **kwargs):
        self._switches = list(net.switches)
        self._g_k = registry.gauge(
            "tlt_policy_color_threshold_bytes",
            "Live color threshold K of the admission policy", ("switch",),
        )
        super().__init__(net.engine, interval_ns, emit, **kwargs)

    def sample(self) -> None:
        for switch in self._switches:
            policy = getattr(switch, "policy", None)
            if policy is None:
                continue
            state = policy.describe()
            row = {"switch": switch.name}
            row.update(state)
            self.emit(self.stream, row)
            k = state.get("k")
            if k is not None:
                self._g_k.labels(switch.name).set(k)


class PathChurnSampler(Sampler):
    """Per-switch multipath churn: flowlet and reroute counters.

    Rows are emitted for switches running a non-default path selector
    (``flowlet``/``wcmp``), carrying the FIB's cumulative flowlet and
    reroute counts — how often flows were re-hashed, and how often a
    re-hash actually moved a flow to a different egress. Static-hash
    fabrics emit nothing (the counters cannot move), keeping the
    stream empty instead of dense-and-zero on default runs.
    """

    stream = "path"

    def __init__(self, net, interval_ns: int, emit: EmitFn, registry, **kwargs):
        self._switches = [
            switch for switch in net.switches
            if getattr(switch.fib, "kind", "static-hash") != "static-hash"
        ]
        self._g_flowlets = registry.gauge(
            "tlt_path_flowlets_total", "Flowlets started at this switch", ("switch",),
        )
        self._g_reroutes = registry.gauge(
            "tlt_path_reroutes_total",
            "Flowlet re-hashes that changed the egress port", ("switch",),
        )
        super().__init__(net.engine, interval_ns, emit, **kwargs)

    def sample(self) -> None:
        for switch in self._switches:
            fib = switch.fib
            self.emit(self.stream, {
                "switch": switch.name, "selection": fib.kind,
                "flowlets": fib.flowlets, "reroutes": fib.reroutes,
            })
            self._g_flowlets.labels(switch.name).set(fib.flowlets)
            self._g_reroutes.labels(switch.name).set(fib.reroutes)


class LinkLoadSampler(Sampler):
    """Utilization of every connected port, from tx_bytes deltas."""

    stream = "link"

    def __init__(self, net, interval_ns: int, emit: EmitFn, registry, **kwargs):
        self._ports = [
            port
            for device in list(net.switches) + list(net.hosts)
            for port in device.ports
            if port.peer is not None
        ]
        self._last: List[int] = [port.tx_bytes for port in self._ports]
        self._capacity: List[float] = [
            port.rate_bps * interval_ns / 8 / 1e9 for port in self._ports
        ]
        self._g_util = registry.gauge(
            "tlt_link_utilization", "Per-port TX utilization over the last interval",
            ("device", "port"),
        )
        super().__init__(net.engine, interval_ns, emit, **kwargs)

    def sample(self) -> None:
        for i, port in enumerate(self._ports):
            sent = port.tx_bytes - self._last[i]
            if not sent:
                continue
            self._last[i] = port.tx_bytes
            util = min(sent / self._capacity[i], 1.0)
            self.emit(self.stream, {
                "device": port.owner.name, "port": port.port_no,
                "util": round(util, 6),
            })
            self._g_util.labels(port.owner.name, port.port_no).set(util)


class ServiceLatencySampler(Sampler):
    """Per-tier response-latency percentiles from the service emulator.

    Reads the emulator's streaming sketches (cumulative — each tick
    reports the distribution so far, not a window) and emits one row
    per backend tier plus one for the end-to-end request stream
    (``tier="request"``). Reading a sketch never perturbs it, so the
    determinism contract holds.
    """

    stream = "service"

    def __init__(self, emulator, interval_ns: int, emit: EmitFn, **kwargs):
        self.emulator = emulator
        super().__init__(emulator.engine, interval_ns, emit, **kwargs)

    def _row(self, tier: str, sketch) -> Dict:
        return {
            "tier": tier,
            "count": len(sketch),
            "p50_ns": int(sketch.percentile(50)),
            "p99_ns": int(sketch.percentile(99)),
            "p999_ns": int(sketch.percentile(99.9)),
        }

    def sample(self) -> None:
        emulator = self.emulator
        self.emit(self.stream, self._row("request", emulator.request_sketch))
        for tier, sketch in zip(emulator.spec.tiers, emulator.tier_sketches):
            self.emit(self.stream, self._row(tier.name, sketch))


#: Stream name -> required row fields, shared with tools/check_telemetry.py.
STREAM_FIELDS: Dict[str, Tuple[str, ...]] = {
    "queue": ("switch", "port", "tclass", "occ", "red", "green", "k"),
    "buffer": ("switch", "used", "capacity", "peak"),
    "pfc": ("device", "port", "paused", "asserted"),
    "flow": ("flow", "group", "inflight", "rto_armed", "cwnd", "rate_bps", "tlt"),
    "link": ("device", "port", "util"),
    "policy": ("switch", "policy", "k"),
    "path": ("switch", "selection", "flowlets", "reroutes"),
    "service": ("tier", "count", "p50_ns", "p99_ns", "p999_ns"),
}
