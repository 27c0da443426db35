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

import gc
import os
import random
import time
from dataclasses import dataclass, field, replace
from typing import Dict, Optional

from repro.audit import AuditConfig, AuditError, Auditor
from repro.core.config import TltConfig
from repro.experiments.perf import TALLY
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

    # Run control.
    seed: int = 1
    #: Split the fabric across this many conservative-lookahead shard
    #: workers (:mod:`repro.sim.sharding`). ``None`` defers to the
    #: ``TLT_SHARDS`` environment variable (set by ``--shards``), which
    #: also reaches pool workers. Sharding is an execution strategy,
    #: not a scenario input — results are bit-identical by contract —
    #: so it is excluded from result-cache keys.
    shards: Optional[int] = None
    drain_ns: int = 100 * MILLIS
    hard_cap_ns: Optional[int] = None
    queue_sample_interval_ns: int = 20 * MICROS
    #: Run with the runtime invariant auditor attached. ``None`` defers
    #: to the ``TLT_AUDIT`` environment variable (set by ``--audit``),
    #: which also reaches pool workers and keeps cache keys stable.
    audit: Optional[bool] = None
    #: Fault-schedule spec (the :class:`repro.faults.FaultSchedule` JSON
    #: form). ``None`` defers to the ``TLT_FAULTS`` environment variable
    #: (a spec file path, set by ``--faults``), which also reaches pool
    #: workers; the resolved spec is folded into cache keys.
    faults: Optional[Dict] = None
    #: Telemetry spec (:class:`repro.telemetry.TelemetryConfig` dict
    #: form, or just an output-directory string). ``None`` defers to the
    #: ``TLT_TELEMETRY`` environment variable (an output directory, set
    #: by ``--telemetry``), which also reaches pool workers. Telemetry
    #: is an observation, not a result: it is *excluded* from
    #: result-cache keys, and samplers never perturb the simulation —
    #: determinism fingerprints are bit-identical with it on.
    telemetry: Optional[Dict] = None
    #: Service-emulator spec (:class:`repro.service.ServiceSpec` dict
    #: form). When set, :func:`run_scenario` dispatches to
    #: :func:`repro.service.run.run_service`: the workload is the
    #: open-loop multi-tier request stream instead of the
    #: background+incast mix. Part of the result identity, folded into
    #: cache keys like any other field.
    service: Optional[Dict] = None
    #: Checkpoint spec: ``{"dir": path, "at_ns": sim-time}`` (``at_ns``
    #: optional — defaults to the midpoint of the arrival span), or just
    #: a directory string. ``None`` defers to the ``TLT_CHECKPOINT``
    #: environment variable (a directory, set by ``--checkpoint``).
    #: Checkpointing is an execution strategy, not a scenario input —
    #: restore continues bit-identically by contract — so it is
    #: *excluded* from result-cache keys (same rule as telemetry and
    #: shards; see docs/API.md). Pure backend only; service runs only.
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
    def resolved_shards(self) -> int:
        if self.shards is not None:
            return max(1, int(self.shards))
        try:
            return max(1, int(os.environ.get("TLT_SHARDS", "1")))
        except ValueError:
            return 1

    @property
    def audit_enabled(self) -> bool:
        if self.audit is not None:
            return self.audit
        return os.environ.get("TLT_AUDIT", "") not in ("", "0")

    def resolved_faults(self) -> Optional[Dict]:
        """The fault-schedule spec for this run, canonicalized, or None.

        An explicit ``faults`` spec on the config wins; otherwise
        ``TLT_FAULTS`` names a spec file to load.
        """
        if self.faults is not None:
            return FaultSchedule.from_spec(self.faults).to_spec()
        path = os.environ.get("TLT_FAULTS", "")
        if not path:
            return None
        return FaultSchedule.load(path).to_spec()

    def resolved_telemetry(self) -> Optional[Dict]:
        """The telemetry spec for this run, canonicalized, or None.

        An explicit ``telemetry`` spec on the config wins; otherwise
        ``TLT_TELEMETRY`` names an output directory.
        """
        from repro.telemetry import TelemetryConfig

        if self.telemetry is not None:
            return TelemetryConfig.from_spec(self.telemetry).to_spec()
        out_dir = os.environ.get("TLT_TELEMETRY", "")
        if not out_dir:
            return None
        return TelemetryConfig.from_spec(out_dir).to_spec()

    def resolved_checkpoint(self) -> Optional[Dict]:
        """The checkpoint spec for this run, canonicalized, or None.

        An explicit ``checkpoint`` spec on the config wins; otherwise
        ``TLT_CHECKPOINT`` names a directory. Canonical form is
        ``{"dir": str, "at_ns": Optional[int]}``.
        """
        spec = self.checkpoint
        if spec is None:
            directory = os.environ.get("TLT_CHECKPOINT", "")
            if not directory:
                return None
            spec = directory
        if isinstance(spec, str):
            return {"dir": spec, "at_ns": None}
        if isinstance(spec, dict) and "dir" in spec:
            return {"dir": spec["dir"], "at_ns": spec.get("at_ns")}
        raise ValueError(
            f"checkpoint spec must be a directory or {{'dir', 'at_ns'}} "
            f"dict, got {spec!r}")

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


def _telemetry_run_id(config: ScenarioConfig) -> str:
    """Stable per-(config, seed) identifier for telemetry file names.

    Derived from the same canonical config encoding the result cache
    uses (telemetry itself stripped — it must not name its own files),
    so parallel workers and reruns agree without coordination.
    """
    import hashlib
    import json

    from repro.experiments.cache import encode_value

    blob = json.dumps(encode_value(replace(config, telemetry=None)), sort_keys=True)
    digest = hashlib.sha256(blob.encode()).hexdigest()[:8]
    tag = f"{config.transport}_tlt" if config.tlt else config.transport
    return f"{tag}_s{config.seed}_{digest}"


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    """Build, run and measure one scenario."""
    if config.service is not None:
        # Service runs replace the whole traffic layer (open-loop
        # request stream instead of background+incast), so they take
        # their own drive loop; sharding does not apply to them.
        from repro.service.run import run_service

        return run_service(config)
    shards = config.resolved_shards
    if shards > 1 and config.topology == "leaf_spine":
        from repro.sim.sharding import run_scenario_sharded

        return run_scenario_sharded(config, shards)
    wall_started = time.perf_counter()
    net = build_network(config)
    auditor = None
    if config.audit_enabled:
        auditor = Auditor(net, AuditConfig.from_env())
        auditor.install()
    fault_controller = None
    fault_spec = config.resolved_faults()
    if fault_spec is not None:
        fault_controller = FaultSchedule.from_spec(fault_spec).install(net)
    tconfig = make_transport_config(config)
    tlt_cfg = config.tlt_config if config.tlt else None

    def create(spec: FlowSpec) -> None:
        create_flow(config.transport, net, spec, tconfig, tlt_cfg)

    end_of_traffic = 0
    if config.enable_background:
        background = BackgroundTraffic(
            net,
            DISTRIBUTIONS[config.workload],
            create,
            load=config.load,
            num_flows=config.bg_flows if config.bg_flows is not None else config.scale.bg_flows,
            link_rate_bps=config.link_rate_bps,
        )
        background.schedule()
        end_of_traffic = max(end_of_traffic, background.end_of_arrivals_ns)

    if config.enable_incast:
        scale = config.scale
        events = (
            config.incast_events if config.incast_events is not None else scale.incast_events
        )
        per_sender = (
            config.incast_flows_per_sender
            if config.incast_flows_per_sender is not None
            else scale.incast_flows_per_sender
        )
        interval = IncastTraffic.interval_for_share(
            config.fg_share,
            config.load,
            scale.num_hosts,
            config.link_rate_bps,
            config.incast_flow_size,
            per_sender,
            scale.num_hosts - 1,
        )
        incast = IncastTraffic(
            net,
            create,
            flow_size=config.incast_flow_size,
            flows_per_sender=per_sender,
            num_events=events,
            interval_ns=interval,
            start_ns=200 * MICROS,
        )
        incast.schedule()
        if incast.specs:
            end_of_traffic = max(end_of_traffic, incast.specs[-1].start_ns)

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

    # Telemetry rides the same liveness rule as the sampler above, so
    # attaching it never extends a run; its samplers only read state,
    # so every simulation observable stays bit-identical.
    telemetry = None
    telemetry_spec = config.resolved_telemetry()
    if telemetry_spec is not None:
        from repro.telemetry import Telemetry, TelemetryConfig

        telemetry_config = TelemetryConfig.from_spec(telemetry_spec)
        telemetry = Telemetry(
            net, telemetry_config, scenario=config,
            run_id=telemetry_config.run_id or _telemetry_run_id(config),
        )
        telemetry.install(
            active=lambda: net.engine.now < end_of_traffic
            or bool(net.stats.incomplete_flows())
        )
        if fault_controller is not None:
            telemetry.attach_faults(fault_controller)

    hard_cap = config.hard_cap_ns or (horizon + 10 * config.drain_ns)
    # One full collection before the run; the engine switches the
    # collector off while it runs. It is 9-15 ms (4-14 % of a benchmark
    # sub-run's CPU), half of it freeing the previous run's 15-29 k
    # cyclic objects: without it back-to-back runs in one process hold
    # two runs' graphs at the peak (incast-star: 78 MB RSS instead of
    # 41 MB, for 3 % less CPU).
    gc.collect()
    try:
        net.engine.run(until=horizon)
        while (
            net.stats.incomplete_flows()
            and net.engine.now < hard_cap
            and net.engine.pending
        ):
            net.engine.run(until=min(net.engine.now + 50 * MILLIS, hard_cap))

        if auditor is not None:
            auditor.final_check()
    except AuditError as error:
        # Post-mortem: snapshot the sample window + audit trace before
        # the violation propagates.
        if telemetry is not None:
            telemetry.on_audit_error(error)
        raise
    finally:
        if telemetry is not None:
            telemetry.finalize()
    TALLY.add(net.engine.events_processed, time.perf_counter() - wall_started)
    return ScenarioResult(
        config, net, net.engine.now, queue_samples, auditor, fault_controller,
        telemetry,
    )
