"""Build and run one simulation scenario (§7.1 settings).

A :class:`ScenarioConfig` captures everything a run needs — transport,
TLT/PFC switches, thresholds, workload mix, scale, seed — and
:func:`run_scenario` assembles the network, schedules traffic, runs the
engine and returns a :class:`ScenarioResult`.

Paper defaults encoded here:

- 40 Gbps links; 10 µs per-hop latency for the TCP family, 1 µs for the
  RoCE family (so base RTT is 80 µs / 8 µs and BDP 400 kB / 40 kB);
- per-switch shared buffer proportional to ports (375 kB/port — the
  4.5 MB / 12 ports of the paper's Trident II model), dynamic threshold
  α = 1;
- color-aware dropping threshold K: 400 kB (TCP family) / 200 kB (RoCE);
- DCTCP step marking at 200 kB; DCQCN RED marking 5 kB/200 kB/1%;
- background flows: Poisson over an empirical CDF at 40% load;
  foreground: synchronized incasts of 8 kB flows, 5% of volume.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import os
import random
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from repro.audit import AuditConfig, AuditError, Auditor
from repro.core.config import TltConfig
from repro.experiments import manifest as run_manifest
from repro.experiments.cache import encode_value
from repro.faults.schedule import FaultController, FaultSchedule
from repro.net.topology import (
    Network,
    TopologyParams,
    dumbbell,
    fat_tree,
    leaf_spine,
    star,
)
from repro.sim.rng import derive_seed
from repro.sim.units import GBPS, KB, MICROS, MILLIS
from repro.switchsim.ecn import RedEcn, StepEcn
from repro.switchsim.pfc import PfcConfig
from repro.switchsim.switch import SwitchConfig
from repro.transport.base import FlowSpec, TransportConfig
from repro.transport.registry import create_flow, resolve_config
from repro.experiments.scale import SMALL, Scale
from repro.workload.background import BackgroundTraffic
from repro.workload.distributions import DISTRIBUTIONS
from repro.workload.incast import IncastTraffic

#: Transports built on the TCP byte-stream family.
TCP_FAMILY = frozenset({"tcp", "dctcp"})
#: Transports built on the RoCE PSN family.
ROCE_FAMILY = frozenset({"dcqcn", "dcqcn-sack", "irn", "hpcc"})

#: Per-port share of shared buffer (4.5 MB / 12 ports in the paper).
BUFFER_PER_PORT = 375 * KB


@dataclass(frozen=True)
class EcnStreamFactory:
    """Per-switch RED marking streams, seeded by switch name.

    RED marking draws an RNG per probabilistic decision, so every
    switch needs its *own* stream — a single fabric-global RNG would
    make marking depend on global packet arrival order (and kept the
    RoCE family out of the sharded executor: name-derived seeds are
    identical in every shard replica, and only the owning shard draws
    from them). A module-level class rather than a closure so networks
    built for the RoCE family stay picklable for checkpoint/restore.
    """

    kmin: int
    kmax: int
    pmax: float
    seed: int

    def __call__(self, name: str) -> RedEcn:
        return RedEcn(
            self.kmin, self.kmax, self.pmax,
            random.Random(derive_seed(self.seed, f"ecn.{name}")),
        )


@dataclass
class ScenarioConfig:
    """One simulation run's configuration."""

    transport: str = "dctcp"
    tlt: bool = False
    tlt_config: TltConfig = field(default_factory=TltConfig)
    pfc: bool = False

    # Topology.
    topology: str = "leaf_spine"  # "leaf_spine" | "fat_tree" | "star" | "dumbbell"
    scale: Scale = SMALL
    link_rate_bps: int = 40 * GBPS
    link_delay_ns: Optional[int] = None  # default: 10 us TCP / 1 us RoCE
    #: Fat-tree arity (k pods, k^3/4 hosts); only used when
    #: ``topology == "fat_tree"``.
    fat_tree_k: int = 4
    #: Per-spine rate factors for an asymmetric leaf-spine (see
    #: :func:`repro.net.topology.leaf_spine`); None = symmetric.
    spine_rate_factors: Optional[tuple] = None
    #: Per-core rate factors for an asymmetric fat-tree (see
    #: :func:`repro.net.topology.fat_tree`); None = symmetric.
    core_rate_factors: Optional[tuple] = None

    # Switch.
    buffer_per_port: int = BUFFER_PER_PORT
    color_threshold_bytes: Optional[int] = None  # default by family when tlt
    alpha: float = 1.0
    #: Admission-policy spec for every switch (``None`` = the default
    #: Choudhury–Hahne + static-K on the open-coded fast path; a name
    #: or ``{"name": ..., params}`` dict selects a lab policy — see
    #: :func:`repro.switchsim.policy.make_policy`). Part of the result
    #: identity, so it is folded into result-cache keys like any other
    #: field.
    admission: Optional[object] = None
    #: Path-selection spec for every switch (``None`` = static-hash
    #: ECMP, bit-identical to the pinned fingerprints; ``"flowlet"`` /
    #: ``"wcmp"`` or a ``{"name": ..., params}`` dict select a
    #: multipath selector — see :func:`repro.net.routing.make_fib`).
    #: Part of the result identity, so it is folded into cache keys.
    path_selection: Optional[object] = None
    ecn_k_bytes: int = 200 * KB  # DCTCP step threshold
    dcqcn_kmin: int = 5 * KB
    dcqcn_kmax: int = 200 * KB
    dcqcn_pmax: float = 0.01

    # Transport.
    rto_min_ns: int = 4 * MILLIS
    fixed_rto_ns: Optional[int] = None
    tlp: bool = False
    transport_overrides: Dict = field(default_factory=dict)

    # Workload.
    workload: str = "web_search"
    load: float = 0.4
    fg_share: float = 0.05
    incast_flow_size: int = 8 * KB
    bg_flows: Optional[int] = None  # default: scale.bg_flows
    incast_events: Optional[int] = None
    incast_flows_per_sender: Optional[int] = None
    enable_background: bool = True
    enable_incast: bool = True

    seed: int = 1
    drain_ns: int = 100 * MILLIS
    hard_cap_ns: Optional[int] = None
    queue_sample_interval_ns: int = 20 * MICROS
    #: Service-emulator spec (:class:`repro.service.ServiceSpec` dict
    #: form). When set, :func:`run_scenario` dispatches to
    #: :func:`repro.service.run.run_service`: the workload is the
    #: open-loop multi-tier request stream instead of the
    #: background+incast mix. Part of the result identity, folded into
    #: cache keys like any other field.
    service: Optional[Dict] = None

    # Run control: how the run is executed and watched, not what it
    # simulates. ``None`` = not said here: :func:`run_control` then
    # asks the ``TLT_*`` variable the CLI flag of the same name sets
    # (which also reaches pool workers), else off. Results are
    # bit-identical by contract with any of them, so only ``audit``
    # (as a field) and the resolved ``faults`` are in result-cache
    # keys; the table is in docs/API.md, "Run control".
    #: Split the fabric across this many conservative-lookahead shard
    #: workers (:mod:`repro.sim.sharding`).
    shards: Optional[int] = None
    #: Run with the runtime invariant auditor attached.
    audit: Optional[bool] = None
    #: Fault-schedule spec (the :class:`repro.faults.FaultSchedule` JSON
    #: form; ``TLT_FAULTS`` names a spec file).
    faults: Optional[Dict] = None
    #: Telemetry spec (:class:`repro.telemetry.TelemetryConfig` dict
    #: form, or just an output-directory string). Samplers never
    #: perturb the simulation.
    telemetry: Optional[Dict] = None
    #: Checkpoint spec: ``{"dir": path, "at_ns": sim-time}`` (``at_ns``
    #: optional — defaults to the midpoint of the arrival span), or just
    #: a directory string. Pure backend only; service runs only.
    checkpoint: Optional[object] = None

    # -- derived ----------------------------------------------------------------

    @property
    def family(self) -> str:
        if self.transport in TCP_FAMILY:
            return "tcp"
        if self.transport in ROCE_FAMILY:
            return "roce"
        raise ValueError(f"unknown transport {self.transport!r}")

    @property
    def resolved_link_delay_ns(self) -> int:
        if self.link_delay_ns is not None:
            return self.link_delay_ns
        return 10 * MICROS if self.family == "tcp" else 1 * MICROS

    @property
    def base_rtt_ns(self) -> int:
        # Four hops each way in the leaf-spine (host-ToR-spine-ToR-host);
        # six in the fat-tree (host-edge-agg-core-agg-edge-host).
        if self.topology == "fat_tree":
            hops = 6
        elif self.topology == "leaf_spine":
            hops = 4
        else:
            hops = 2
        return 2 * hops * self.resolved_link_delay_ns

    @property
    def bdp_bytes(self) -> int:
        return self.link_rate_bps * self.base_rtt_ns // 8 // 1_000_000_000

    @property
    def resolved_color_threshold(self) -> Optional[int]:
        if not self.tlt:
            return None
        if self.color_threshold_bytes is not None:
            return self.color_threshold_bytes
        return 400 * KB if self.family == "tcp" else 200 * KB


@dataclass
class ScenarioResult:
    """Measurements from one run."""

    config: ScenarioConfig
    net: Network
    duration_ns: int
    queue_samples: list
    auditor: Optional[Auditor] = None
    faults: Optional[FaultController] = None
    #: Attached :class:`repro.telemetry.Telemetry` (finalized), or None.
    telemetry: Optional[object] = None
    #: The :class:`repro.service.ServiceEmulator` for service runs
    #: (response-time sketches, per-tier breakdown), or None.
    service: Optional[object] = None
    #: What ran and what it cost: the manifest :func:`finish_run` returned.
    manifest: Optional[Dict] = None

    @property
    def stats(self):
        return self.net.stats

    def fct_summary(self, group: str = "fg") -> Dict[str, float]:
        return self.stats.fct_summary(group)

    def fg_p99_ms(self) -> float:
        return self.fct_summary("fg")["p99"] / 1e6

    def fg_p999_ms(self) -> float:
        return self.fct_summary("fg")["p999"] / 1e6

    def bg_avg_ms(self) -> float:
        return self.fct_summary("bg")["mean"] / 1e6

    def pause_fraction(self) -> float:
        return self.net.avg_pause_fraction(self.duration_ns)

    def summary_row(self) -> Dict[str, float]:
        stats = self.stats
        return {
            "fg_p99_ms": self.fg_p99_ms(),
            "fg_p999_ms": self.fg_p999_ms(),
            "bg_avg_ms": self.bg_avg_ms(),
            "timeouts_per_1k": stats.timeouts_per_1k_flows(),
            "pause_per_1k": stats.pause_frames_per_1k_flows(),
            "pause_fraction": self.pause_fraction(),
            "important_loss_rate": stats.important_loss_rate(),
            "important_fraction": stats.important_fraction_bytes(),
            "fault_drops": float(stats.drops_fault),
            "incomplete": float(stats.incomplete_flows()),
            # Path churn across the fabric (zero for static selectors).
            # Sharded runs carry the merged sums on the network facade;
            # live runs sum the per-switch FIB counters directly.
            "flowlets": float(
                sum(sw.fib.flowlets for sw in self.net.switches)
                if self.net.switches else getattr(self.net, "fib_flowlets", 0)
            ),
            "reroutes": float(
                sum(sw.fib.reroutes for sw in self.net.switches)
                if self.net.switches else getattr(self.net, "fib_reroutes", 0)
            ),
        }


def build_network(config: ScenarioConfig) -> Network:
    """Construct the network for a scenario (no traffic yet)."""
    scale = config.scale
    if config.topology == "leaf_spine":
        ports = scale.hosts_per_tor + scale.num_spines
    elif config.topology == "fat_tree":
        ports = config.fat_tree_k
    else:
        ports = scale.num_hosts
    ecn = None
    ecn_factory = None
    if config.transport == "dctcp":
        # Stateless step marking: one shared scheme object is fine.
        ecn = StepEcn(config.ecn_k_bytes)
    elif config.transport in ("dcqcn", "dcqcn-sack", "irn"):
        ecn_factory = EcnStreamFactory(
            config.dcqcn_kmin, config.dcqcn_kmax, config.dcqcn_pmax,
            config.seed,
        )

    switch_config = SwitchConfig(
        buffer_bytes=ports * config.buffer_per_port,
        alpha=config.alpha,
        color_threshold_bytes=config.resolved_color_threshold,
        ecn=ecn,
        ecn_factory=ecn_factory,
        pfc=PfcConfig(enabled=config.pfc),
        int_enabled=(config.transport == "hpcc"),
        admission=config.admission,
        path_selection=config.path_selection,
    )
    params = TopologyParams(
        link_rate_bps=config.link_rate_bps,
        host_link_delay_ns=config.resolved_link_delay_ns,
        fabric_link_delay_ns=config.resolved_link_delay_ns,
        switch_config=switch_config,
    )
    if config.topology == "leaf_spine":
        return leaf_spine(
            scale.num_spines, scale.num_tors, scale.hosts_per_tor, params,
            config.seed, spine_rate_factors=config.spine_rate_factors,
        )
    if config.topology == "fat_tree":
        return fat_tree(
            config.fat_tree_k, params, config.seed,
            core_rate_factors=config.core_rate_factors,
        )
    if config.topology == "star":
        return star(scale.num_hosts, params, config.seed)
    if config.topology == "dumbbell":
        return dumbbell(scale.num_hosts - 2, 2, params, config.seed)
    raise ValueError(f"unknown topology {config.topology!r}")


def make_transport_config(config: ScenarioConfig) -> TransportConfig:
    tconfig = TransportConfig(
        rto_min_ns=config.rto_min_ns,
        fixed_rto_ns=config.fixed_rto_ns,
        tlp_enabled=config.tlp,
        base_rtt_ns=config.base_rtt_ns,
        link_rate_bps=config.link_rate_bps,
    )
    if config.transport_overrides:
        tconfig = replace(tconfig, **config.transport_overrides)
    return resolve_config(config.transport, tconfig)


def endpoint_settings(config: ScenarioConfig) -> tuple:
    """``(transport, transport config, TLT config or None)`` of ``config``'s
    flows: what ``run_scenario``'s ``create`` opens each flow with, and
    what an application endpoint (``RpcNode``, ``WebTier``) takes."""
    return (config.transport, make_transport_config(config),
            config.tlt_config if config.tlt else None)


def _telemetry_run_id(config: ScenarioConfig, traffic=None) -> str:
    """Stable per-(config, seed) identifier for telemetry file names.

    Derived from the same canonical config encoding the result cache
    uses (telemetry itself stripped — it must not name its own files),
    so parallel workers and reruns agree without coordination. A custom
    workload's encoding is folded in too: points that differ only in
    their workload are different runs. A function, closure or lambda
    has none (its repr holds a memory address): a ``TypeError``.
    """
    blob = json.dumps(encode_value(replace(config, telemetry=None)), sort_keys=True)
    if traffic is not None:
        workload = json.dumps(encode_value(traffic), sort_keys=True)
        if not dataclasses.is_dataclass(traffic) or " at 0x" in workload:
            raise TypeError(f"traffic {traffic!r} has no canonical encoding: make it a "
                            "module-level dataclass whose fields are the point's parameters")
        blob += workload
    digest = hashlib.sha256(blob.encode()).hexdigest()[:8]
    tag = f"{config.transport}_tlt" if config.tlt else config.transport
    return f"{tag}_s{config.seed}_{digest}"


@dataclass(frozen=True)
class RunControl:
    """How one run is executed and watched, resolved by :func:`run_control`
    (specs in canonical form): nothing here changes what is simulated."""

    shards: int = 1
    audit: bool = False
    audit_dump: Optional[str] = None  # an AuditError also writes its report here
    faults: Optional[Dict] = None
    telemetry: Optional[Dict] = None
    checkpoint: Optional[Dict] = None  # {"dir": str, "at_ns": Optional[int]}


def run_control(config: ScenarioConfig) -> RunControl:
    """Resolve run control: explicit config field > ``TLT_*`` variable > off.

    The one place the six variables are read (the CLI sets them so that
    pool workers and the figure modules, which build their own configs,
    see them); harnesses and shard worker processes receive the result.
    """
    def said(name: str, variable: str):
        value = getattr(config, name)
        return value if value is not None else os.environ.get(variable) or None

    try:
        shards = max(1, int(said("shards", "TLT_SHARDS") or 1))
    except ValueError:  # a malformed TLT_SHARDS
        shards = 1
    audit = said("audit", "TLT_AUDIT")
    if isinstance(audit, str):  # the variable: on unless "0"
        audit = audit != "0"
    faults, faults_file = config.faults, os.environ.get("TLT_FAULTS")
    if faults is not None:
        faults = FaultSchedule.from_spec(faults).to_spec()
    elif faults_file:  # the variable names a spec file, not a spec
        faults = FaultSchedule.load(faults_file).to_spec()
    telemetry = said("telemetry", "TLT_TELEMETRY")
    if telemetry is not None:
        from repro.telemetry import TelemetryConfig

        telemetry = TelemetryConfig.from_spec(telemetry).to_spec()
    checkpoint = said("checkpoint", "TLT_CHECKPOINT")
    if isinstance(checkpoint, str):
        checkpoint = {"dir": checkpoint, "at_ns": None}
    elif isinstance(checkpoint, dict) and "dir" in checkpoint:
        checkpoint = {"dir": checkpoint["dir"], "at_ns": checkpoint.get("at_ns")}
    elif checkpoint is not None:
        raise ValueError(
            f"checkpoint spec must be a directory or {{'dir', 'at_ns'}} "
            f"dict, got {checkpoint!r}")
    return RunControl(
        shards, bool(audit), os.environ.get("TLT_AUDIT_DUMP") or None,
        faults, telemetry, checkpoint,
    )


# -- the run harness ---------------------------------------------------------------
#
# run_scenario, run_service and the shard worker assemble a run from
# these functions, in this order, which is behaviour (the auditor's first
# tick and every fault event draw an engine ``seq``; ``events_processed``
# is in every pin): network -> attach_auditor -> install_faults ->
# transport config -> traffic -> queue sampler -> attach_telemetry ->
# gc.collect() -> drive -> finish_run. An experiment with a workload of
# its own hands it to run_scenario as ``traffic``.


def attach_auditor(net: Network, control: RunControl) -> Optional[Auditor]:
    """The invariant auditor every audited run gets, installed."""
    if not control.audit:
        return None
    return Auditor(net, AuditConfig(dump_path=control.audit_dump)).install()


def install_faults(net: Network, control: RunControl,
                   arm=FaultController.install) -> Optional[FaultController]:
    """The run's fault schedule on ``net``; ``arm(controller)`` puts its
    events on the engine (a shard arms only those it owns)."""
    if control.faults is None:
        return None
    controller = FaultController(net, FaultSchedule.from_spec(control.faults))
    arm(controller)
    return controller


def schedule_traffic(config: ScenarioConfig, net: Network, create) -> Tuple[int, int]:
    """Schedule the background + incast mix; ``create(spec)`` makes each
    flow. Returns (time of the last arrival, number of flows)."""
    scale = config.scale
    end_of_traffic = flows = 0
    if config.enable_background:
        background = BackgroundTraffic(
            net, DISTRIBUTIONS[config.workload], create, load=config.load,
            num_flows=config.bg_flows if config.bg_flows is not None else scale.bg_flows,
            link_rate_bps=config.link_rate_bps,
        )
        background.schedule()
        flows += len(background.specs)
        end_of_traffic = background.end_of_arrivals_ns

    if config.enable_incast:
        per_sender = (
            config.incast_flows_per_sender
            if config.incast_flows_per_sender is not None
            else scale.incast_flows_per_sender
        )
        interval = IncastTraffic.interval_for_share(
            config.fg_share, config.load, scale.num_hosts, config.link_rate_bps,
            config.incast_flow_size, per_sender, scale.num_hosts - 1,
        )
        incast = IncastTraffic(
            net, create, flow_size=config.incast_flow_size, flows_per_sender=per_sender,
            num_events=(
                config.incast_events if config.incast_events is not None
                else scale.incast_events
            ),
            interval_ns=interval, start_ns=200 * MICROS,
        )
        incast.schedule()
        flows += len(incast.specs)
        if incast.specs:
            end_of_traffic = max(end_of_traffic, incast.specs[-1].start_ns)
    return end_of_traffic, flows


def attach_telemetry(config: ScenarioConfig, net: Network, control: RunControl,
                     active, faults: Optional[FaultController] = None,
                     run_id_suffix: str = "", run_id: Optional[str] = None):
    """The run's :class:`repro.telemetry.Telemetry`, installed, or None.

    ``active`` is the harness's own liveness rule, so telemetry never
    extends a run; its samplers only read state, so every simulation
    observable stays bit-identical. ``run_id`` defaults to the config's.
    """
    if control.telemetry is None:
        return None
    from repro.telemetry import Telemetry

    telemetry = Telemetry(net, control.telemetry, scenario=config,
                          run_id=(run_id or _telemetry_run_id(config)) + run_id_suffix)
    telemetry.install(active=active)
    if faults is not None:
        telemetry.attach_faults(faults)
    return telemetry


def finish_run(net: Network, control: RunControl, auditor: Optional[Auditor] = None,
               telemetry=None, error: Optional[BaseException] = None, *,
               config: Optional[ScenarioConfig] = None,
               shard: Optional[int] = None, run_id: Optional[str] = None) -> Optional[Dict]:
    """End a run: the auditor's final check, then the run's manifest
    (built here and nowhere else; logged unless this is one ``shard`` of
    a run, whose coordinator logs the merged one), then telemetry
    closed, which writes it beside its streams. A run that ``error``
    already ended gets neither check nor manifest and needs no ``config``;
    ``run_id`` defaults to the config's. An :class:`AuditError`,
    from either, is first snapshotted by the flight recorder (sample
    window + audit trace); the caller re-raises what it passed in."""
    manifest = None
    try:
        if error is None:
            if auditor is not None:
                auditor.final_check()
            # One digest, shared with the telemetry files.
            if telemetry is not None:
                run_id = telemetry.run_id
            elif run_id is None:
                run_id = _telemetry_run_id(config)
            manifest = run_manifest.build(net, control, config, run_id, shard)
            if shard is None:
                run_manifest.LOG.append(manifest)
    except AuditError as violation:
        error = violation
        raise
    finally:
        if telemetry is not None:
            if isinstance(error, AuditError):
                telemetry.on_audit_error(error)
            telemetry.finalize(manifest)
    return manifest


def run_scenario(config: ScenarioConfig, traffic=None) -> ScenarioResult:
    """Build, run and measure one scenario.

    ``traffic(config, net, create)`` is the workload (None:
    :func:`schedule_traffic`); ``create(spec)`` opens one flow of the run.
    A custom one is a dataclass whose fields, the point's parameters, are
    folded into the run id; it runs on one engine (the shard workers
    schedule only the standard mix) and never with ``service``.
    """
    control = run_control(config)
    run_id = None  # the config's, unless a custom workload names the run
    if traffic is not None:
        if config.service is not None:
            raise ValueError("a service scenario's workload is its request "
                             "stream: it takes no custom traffic")
        run_id = _telemetry_run_id(config, traffic)
    if config.service is not None:
        # Service runs replace the whole traffic layer (open-loop
        # request stream instead of background+incast), so they take
        # their own drive loop; sharding does not apply to them.
        from repro.service.run import run_service

        return run_service(config, control)
    if traffic is None and control.shards > 1 and config.topology == "leaf_spine":
        from repro.sim.sharding import run_scenario_sharded

        return run_scenario_sharded(config, control)
    net = build_network(config)
    auditor = attach_auditor(net, control)
    faults = install_faults(net, control)
    transport, tconfig, tlt_cfg = endpoint_settings(config)

    def create(spec: FlowSpec) -> None:
        create_flow(transport, net, spec, tconfig, tlt_cfg)

    end_of_traffic, _flows = (traffic or schedule_traffic)(config, net, create)
    horizon = end_of_traffic + config.drain_ns

    # Periodic queue-length sampling (Fig 11). Runs until the traffic
    # window closes (plus while stragglers remain).
    queue_samples: list = []
    queues = [queue for switch in net.switches for queue in switch.queues]

    def sample_queues() -> None:
        for queue in queues:
            if queue.occupancy:
                queue_samples.append(queue.occupancy)
        if net.engine.now < end_of_traffic or net.stats.incomplete_flows():
            net.engine.schedule(config.queue_sample_interval_ns, sample_queues)

    net.engine.schedule(config.queue_sample_interval_ns, sample_queues)

    # Telemetry rides the same liveness rule as the sampler above.
    telemetry = attach_telemetry(
        config, net, control,
        lambda: net.engine.now < end_of_traffic or bool(net.stats.incomplete_flows()),
        faults, run_id=run_id,
    )
    # One full collection before the run; the engine switches the
    # collector off while it runs. It frees the previous run's network
    # and receivers (finished senders are gone by reference count):
    # 1.7-9.2 k objects in 7-12 ms, 4-12 % of a compiled benchmark
    # sub-run's CPU (docs/PERFORMANCE.md, "Memory"). Without it
    # back-to-back runs in one process hold two runs' graphs at the peak.
    gc.collect()
    engine = net.engine
    hard_cap = config.hard_cap_ns or (horizon + 10 * config.drain_ns)
    try:
        # To the horizon, then in 50 ms steps while flows are incomplete,
        # events remain and the hard cap is not reached.
        engine.run(until=horizon)
        while net.stats.incomplete_flows() and engine.now < hard_cap and engine.pending:
            engine.run(until=min(engine.now + 50 * MILLIS, hard_cap))
    except BaseException as error:
        finish_run(net, control, auditor, telemetry, error)
        raise
    manifest = finish_run(net, control, auditor, telemetry, config=config, run_id=run_id)
    return ScenarioResult(config, net, engine.now, queue_samples, auditor,
                          faults, telemetry, manifest=manifest)
