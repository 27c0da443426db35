"""Declarative fault schedules: timed hardware-failure events.

A :class:`FaultSchedule` is an ordered list of :class:`FaultEvent`\\ s —
JSON-able, diffable, cache-fingerprintable — and
:meth:`FaultSchedule.install` arms them on a network's engine. A
:class:`FaultController` owns the runtime state: corruption injectors,
blackhole interceptors, withdrawn FIB routes and PFC-storm refresh
ticks.

Spec format (``--faults spec.json``; docs/API.md, "Specs")::

    {"events": [{"time_ns": 300000, "kind": "link_down", "target": "tor0:4"}]}

Targets are device names (``tor0``) or ``device:port_no``. Each kind's
``params`` are the arguments of its function below (``corruption_on``'s:
a loss model of :data:`repro.faults.models.LOSS_MODELS`).

Each kind's semantics are in docs/API.md ("Fault injection"): link_down
cuts both directions and withdraws the port from each switch endpoint's
FIB; link_degrade rescales the link's *pristine* rate and path weight;
switch_down is link_down on every attached link plus a drop-all
blackhole; pfc_storm force-feeds PAUSE frames until its window closes.
Every drop made here is a *fault* drop (``NetStats.count_fault_drop``,
``fault_drop`` in the audit ring): the §4 green-drop checker only ever
sees congestion drops.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Annotated, Any, Callable, Dict, List, Literal, Set, Tuple

from repro.faults.models import FaultInjector, model_spec
from repro.net.node import Device, Interceptor
from repro.net.packet import Packet, recycle
from repro.net.routing import capacity_weight
from repro.spec import Check, NonNegativeInt, PositiveInt, build, check, expected, within

#: Recognized event kinds, each with what its target names: a device
#: (``tor0``) or one of its ports (``tor0:4``).
FAULT_KINDS = {
    "corruption_on": "device",
    "corruption_off": "device",
    "link_down": "port",
    "link_up": "port",
    "link_degrade": "port",
    "link_restore": "port",
    "switch_down": "device",
    "switch_up": "device",
    "pfc_storm": "port",
}

#: Default PFC pause quantum for storms: 65535 quanta of 512 bit-times
#: at 40 Gbps ≈ 839 µs on real hardware; we refresh at half-quantum.
DEFAULT_STORM_PAUSE_NS = 65_535 * 512 * 1_000_000_000 // (40 * 10**9)


FaultKind = Literal[tuple(FAULT_KINDS)]


def link_degrade(factor: Annotated[float, Check("a number in (0, 1]",
                                                lambda v: 0 < v <= 1)] = 0.5) -> float:
    """``link_degrade`` params: the share of the pristine rate left."""
    return factor


def pfc_storm(duration_ns: PositiveInt = DEFAULT_STORM_PAUSE_NS,
              pause_ns: PositiveInt = DEFAULT_STORM_PAUSE_NS) -> Tuple[int, int]:
    """``pfc_storm`` params: how long it lasts, and each PAUSE's length."""
    return duration_ns, pause_ns


def no_params() -> None:
    """The params of every other kind (``corruption_on``'s are a loss model)."""


@dataclass(frozen=True)
class FaultEvent:
    """One timed fault action; its ``params``, parsed, are its ``setting``."""

    time_ns: NonNegativeInt
    kind: FaultKind
    target: str = ""
    params: Dict = field(default_factory=dict)
    setting: Any = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        check(self)
        with within("params"):
            setting = (model_spec(self.params) if self.kind == "corruption_on" else build(
                {"link_degrade": link_degrade, "pfc_storm": pfc_storm}.get(self.kind, no_params),
                self.params, self.kind))
        object.__setattr__(self, "setting", setting)

    def to_spec(self) -> Dict:
        spec: Dict = {"time_ns": self.time_ns, "kind": self.kind, "target": self.target}
        if self.params:
            spec["params"] = dict(self.params)
        return spec


@dataclass(frozen=True)
class FaultSchedule:
    """An ordered, declarative list of fault events."""

    events: Tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(sorted(self.events, key=lambda e: e.time_ns)))

    def to_spec(self) -> Dict:
        """Canonical JSON-able form (stable for cache fingerprints)."""
        return {"events": [event.to_spec() for event in self.events]}

    @classmethod
    def from_spec(cls, spec) -> "FaultSchedule":
        """Parse ``{"events": [...]}`` or the bare event list."""
        if isinstance(spec, FaultSchedule):
            return spec
        with within("faults"):
            return build(cls, {"events": spec} if isinstance(spec, list) else spec, "faults")

    @classmethod
    def load(cls, path: str) -> "FaultSchedule":
        try:
            with open(path) as fh:
                return cls.from_spec(json.load(fh))
        except (OSError, json.JSONDecodeError) as error:
            raise expected("faults", "a readable JSON spec file", f"{path} ({error})") from None

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_spec(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def install(self, net, stats=None) -> "FaultController":
        """Arm every event on ``net``'s engine; returns the controller."""
        controller = FaultController(net, self, stats=stats)
        return controller.install()

    @classmethod
    def random(cls, rng, horizon_ns: int, net, max_faults: int = 4) -> "FaultSchedule":
        """Generate a well-formed random schedule (chaos/property tests).

        Picks 1..max_faults fault episodes — corruption windows, link
        flaps, PFC storms — with disjoint targets, each opening in the
        first half of ``horizon_ns`` and closing before it ends.
        """
        switches = list(net.switches)
        links = [
            f"{s.name}:{p.port_no}" for s in switches for p in s.ports if p.peer is not None
        ]
        events: List[FaultEvent] = []
        used: Set[str] = set()
        for _ in range(rng.randrange(1, max_faults + 1)):
            start = rng.randrange(0, max(1, horizon_ns // 2))
            duration = rng.randrange(max(1, horizon_ns // 20), max(2, horizon_ns // 4))
            kind = rng.choice(("corruption", "link_flap", "pfc_storm"))
            if kind == "corruption":
                candidates = [s.name for s in switches if s.name not in used]
                if not candidates:
                    continue
                target = rng.choice(candidates)
                if rng.random() < 0.5:
                    params = {"model": "bernoulli", "rate": rng.choice((1e-4, 1e-3, 1e-2))}
                else:
                    params = {
                        "model": "gilbert_elliott",
                        "p_enter": rng.choice((0.001, 0.01)),
                        "p_exit": rng.choice((0.1, 0.3)),
                        "loss_bad": rng.choice((0.5, 1.0)),
                    }
                events.append(FaultEvent(start, "corruption_on", target, params))
                events.append(FaultEvent(start + duration, "corruption_off", target))
            else:
                candidates = [l for l in links if l not in used]
                if not candidates:
                    continue
                target = rng.choice(candidates)
                if kind == "link_flap":
                    events.append(FaultEvent(start, "link_down", target))
                    events.append(FaultEvent(start + duration, "link_up", target))
                else:
                    events.append(
                        FaultEvent(start, "pfc_storm", target, {"duration_ns": duration})
                    )
            used.add(target)
        return cls(events)


class BlackholeInterceptor(Interceptor):
    """Eats packets arriving on dead ports / for unroutable destinations.

    One per device, installed at chain position 0 (closest to the wire)
    by the :class:`FaultController` and removed when its last failure
    window closes, so a healthy device pays nothing.
    """

    def __init__(self, device: Device, stats):
        self.device = device
        self.stats = stats
        self.dead_ports: Set = set()
        self.unroutable: Set[int] = set()
        self.drop_all = False
        self.dropped = 0

    @property
    def active(self) -> bool:
        return self.drop_all or bool(self.dead_ports) or bool(self.unroutable)

    def on_packet(self, packet: Packet, in_port, forward: Callable) -> None:
        if self.drop_all or in_port in self.dead_ports or packet.dst in self.unroutable:
            self.dropped += 1
            stats = self.stats
            if stats is not None:
                stats.count_fault_drop(packet)
                ring = stats.audit_ring
                if ring is not None:
                    ring.record(
                        "fault_drop", time_ns=self.device.engine.now,
                        device=self.device.name, flow=packet.flow_id,
                        seq=packet.seq, size=packet.size,
                        color=packet.color.name, info="blackhole",
                    )
            recycle(packet)
            return
        forward(packet, in_port)


class FaultController:
    """Runtime state of an armed :class:`FaultSchedule`."""

    def __init__(self, net, schedule: FaultSchedule, stats=None):
        self.net = net
        self.engine = net.engine
        self.stats = stats if stats is not None else net.stats
        self.schedule = schedule
        self.injectors: Dict[str, FaultInjector] = {}
        self.blackholes: Dict[str, BlackholeInterceptor] = {}
        #: Open per-port withdrawal windows (re-entry guard; the FIB
        #: itself owns the authoritative route/unroutable state).
        self._withdrawn: Set[Tuple[str, int]] = set()
        #: (device name, port_no) -> pristine rate_bps of degraded ports.
        self._degraded: Dict[Tuple[str, int], int] = {}
        self.applied: List[Tuple[int, str, str]] = []
        #: Optional post-apply hook ``fn(event)`` (set by
        #: repro.telemetry.Telemetry to trigger flight-recorder dumps).
        self.on_apply = None
        self._devices: Dict[str, Device] = {
            d.name: d for d in list(net.switches) + list(net.hosts)
        }
        # Every target resolved now, not when its event fires: a spec
        # written for another topology fails before the run starts.
        missing = []
        for event in schedule.events:
            try:
                self._target(event)
            except ValueError as error:
                missing.append(str(error))
        if missing:
            raise ValueError("; ".join(dict.fromkeys(missing))
                             + f" (devices: {', '.join(self._devices)})")

    # -- arming ------------------------------------------------------------------

    def install(self) -> "FaultController":
        """Schedule every event (deterministic: fixed order, fixed seq)."""
        for event in self.schedule.events:
            self.engine.schedule_at(event.time_ns, self._apply, event)
        return self

    def _apply(self, event: FaultEvent) -> None:
        getattr(self, "_ev_" + event.kind)(event)
        self.applied.append((self.engine.now, event.kind, event.target))
        if self.on_apply is not None:
            self.on_apply(event)

    # -- target resolution -------------------------------------------------------

    def _target(self, event: FaultEvent):
        """The device or port ``event`` acts on (its kind says which)."""
        if FAULT_KINDS[event.kind] == "device":
            return self._device(event.target)
        return self._port(event.target)

    def _device(self, name: str) -> Device:
        try:
            return self._devices[name]
        except KeyError:
            raise ValueError(f"fault target {name!r}: no such device") from None

    def _port(self, target: str):
        name, _, port_no = target.partition(":")
        if not port_no:
            raise ValueError(f"fault target {target!r}: expected 'device:port_no'")
        device = self._device(name)
        try:
            return device.ports[int(port_no)]
        except (IndexError, ValueError):
            raise ValueError(f"fault target {target!r}: no such port") from None

    def _blackhole(self, device: Device) -> BlackholeInterceptor:
        bh = self.blackholes.get(device.name)
        if bh is None:
            bh = BlackholeInterceptor(device, self.stats)
            # Closest to the wire: a dead link eats packets before
            # corruption models or tracing ever see them.
            device.add_interceptor(bh, index=0)
            self.blackholes[device.name] = bh
        return bh

    def _release_blackhole(self, device: Device) -> None:
        bh = self.blackholes.get(device.name)
        if bh is not None and not bh.active:
            device.remove_interceptor(bh)
            del self.blackholes[device.name]

    # -- corruption --------------------------------------------------------------

    def _ev_corruption_on(self, event: FaultEvent) -> None:
        device = self._target(event)
        old = self.injectors.pop(device.name, None)
        if old is not None:
            old.detach()
        self.injectors[device.name] = FaultInjector(
            device,
            model=event.setting.build(),
            rng=self.net.rng.stream(f"fault.corruption.{device.name}"),
            stats=self.stats,
        )

    def _ev_corruption_off(self, event: FaultEvent) -> None:
        injector = self.injectors.pop(self._target(event).name, None)
        if injector is not None:
            injector.detach()

    # -- link failure ------------------------------------------------------------

    def _take_port_down(self, port) -> None:
        port.set_link_state(False)
        owner = port.owner
        self._blackhole(owner).dead_ports.add(port)
        fib = getattr(owner, "fib", None)
        key = (owner.name, port.port_no)
        if fib is not None and key not in self._withdrawn:
            self._withdrawn.add(key)
            # The FIB composes overlapping windows internally and
            # reports the authoritative currently-unroutable set.
            self._blackhole(owner).unroutable = set(fib.disable_port(port.port_no))

    def _bring_port_up(self, port) -> None:
        owner = port.owner
        key = (owner.name, port.port_no)
        fib = getattr(owner, "fib", None)
        still_dark: Set[int] = set()
        if key in self._withdrawn:
            self._withdrawn.discard(key)
            if fib is not None:
                # Pristine-minus-still-down recompute: healing this port
                # never resurrects a route through a still-down one, and
                # a destination reachable again through the healed port
                # leaves the blackhole immediately.
                still_dark = fib.enable_port(port.port_no)
        elif fib is not None:
            still_dark = fib.unroutable()
        bh = self.blackholes.get(owner.name)
        if bh is not None:
            bh.dead_ports.discard(port)
            bh.unroutable = set(still_dark)
            self._release_blackhole(owner)
        port.set_link_state(True)

    def _ev_link_down(self, event: FaultEvent) -> None:
        port = self._target(event)
        self._take_port_down(port)
        if port.peer is not None:
            self._take_port_down(port.peer)

    def _ev_link_up(self, event: FaultEvent) -> None:
        port = self._target(event)
        self._bring_port_up(port)
        if port.peer is not None:
            self._bring_port_up(port.peer)

    # -- link degradation --------------------------------------------------------

    def _link_endpoints(self, port):
        return (port, port.peer) if port.peer is not None else (port,)

    def _set_port_rate(self, port, rate_bps: int) -> None:
        port.rate_bps = rate_bps
        owner = port.owner
        fib = getattr(owner, "fib", None)
        if fib is not None:
            # Weighted selectors follow live capacity: new flowlets and
            # WCMP hashes shift load off the thin path immediately.
            fib.set_port_weight(port.port_no, capacity_weight(rate_bps))

    def _ev_link_degrade(self, event: FaultEvent) -> None:
        port = self._target(event)
        factor = event.setting
        for end in self._link_endpoints(port):
            key = (end.owner.name, end.port_no)
            # Repeated degrades rescale from the pristine rate, not the
            # already-degraded one, mirroring disable/enable semantics.
            pristine = self._degraded.setdefault(key, end.rate_bps)
            self._set_port_rate(end, max(1, int(pristine * factor)))

    def _ev_link_restore(self, event: FaultEvent) -> None:
        port = self._target(event)
        for end in self._link_endpoints(port):
            pristine = self._degraded.pop((end.owner.name, end.port_no), None)
            if pristine is not None:
                self._set_port_rate(end, pristine)

    # -- switch failure ----------------------------------------------------------

    def _ev_switch_down(self, event: FaultEvent) -> None:
        switch = self._target(event)
        self._blackhole(switch).drop_all = True
        for port in switch.ports:
            port.set_link_state(False)
            if port.peer is not None:
                self._take_port_down(port.peer)

    def _ev_switch_up(self, event: FaultEvent) -> None:
        switch = self._target(event)
        bh = self.blackholes.get(switch.name)
        if bh is not None:
            bh.drop_all = False
            self._release_blackhole(switch)
        for port in switch.ports:
            if port.peer is not None:
                self._bring_port_up(port.peer)
            port.set_link_state(True)

    # -- PFC storm ---------------------------------------------------------------

    def _ev_pfc_storm(self, event: FaultEvent) -> None:
        port = self._target(event)
        duration, quantum = event.setting
        self._storm_tick(port, self.engine.now + duration, quantum)

    def _storm_tick(self, port, end_ns: int, quantum: int) -> None:
        remaining = end_ns - self.engine.now
        if remaining <= 0 or port.down:
            return
        pause = min(quantum, remaining)
        self.stats.pause_frames += 1  # the storm IS pause frames on the wire
        port.apply_pause(pause)
        if remaining > pause:
            # Refresh at half-quantum, like PfcEngine (and a real storm):
            # the pause never expires while the storm lasts.
            self.engine.schedule(max(1, pause // 2), self._storm_tick, port, end_ns, quantum)
