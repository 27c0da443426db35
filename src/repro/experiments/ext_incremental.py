"""Extension — incremental deployment (§5.3).

The paper argues TLT can be deployed incrementally if TLT-enabled
traffic gets its own switch queue with color-aware dropping while
legacy traffic uses a plain queue ("non-TLT packets must use a
separated queue without color-aware dropping, as it will drop the
non-TLT packets, leading to performance degradation").

This experiment quantifies that: half the hosts run DCTCP+TLT, half
legacy DCTCP, under one shared incast + background mix, comparing

- ``isolated``   — two queues; coloring only on the TLT class (the
  paper's recommended deployment),
- ``shared-bad`` — one queue with coloring, legacy traffic classified
  unimportant (what the paper warns against),
- ``no-tlt``     — everyone legacy (reference).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Sequence

from repro.core.config import TltConfig
from repro.experiments.common import average, resolve_scale
from repro.experiments.scenarios import (
    ScenarioConfig,
    attach_auditor,
    build_network,
    drain,
    finish_run,
    make_transport_config,
    run_control,
)
from repro.net.packet import Color
from repro.sim.units import KB, MILLIS
from repro.switchsim.queue import EgressQueue
from repro.transport.base import FlowSpec
from repro.transport.registry import create_flow
from repro.workload.background import BackgroundTraffic
from repro.workload.distributions import DISTRIBUTIONS
from repro.workload.incast import IncastTraffic

COLUMNS = ["deployment", "tlt_fg_p99_ms", "legacy_fg_p99_ms",
           "tlt_timeouts", "legacy_timeouts", "drops_red"]

TABLES = {"": ("Extension: incremental deployment (half TLT, half legacy)", COLUMNS)}


def _run(deployment: str, scale, seed: int = 1) -> Dict:
    config = ScenarioConfig(transport="dctcp", tlt=True, scale=scale, seed=seed)
    net = build_network(config)
    for switch in net.switches:
        if deployment == "isolated":
            # Two classes; color-aware dropping on class 0 only.
            switch.config.num_traffic_classes = 2
            switch.config.color_classes = (0,)
            # Rebuild queues with two classes per existing port.
            switch._port_queues = [
                [EgressQueue(p), EgressQueue(p)] for p in range(len(switch.ports))
            ]
            switch._rr = [0] * len(switch.ports)
        elif deployment == "no-tlt":
            switch.config.color_threshold_bytes = None
    control = run_control(config)
    auditor = attach_auditor(net, control)

    tconfig = make_transport_config(config)
    tlt_tconfig = tconfig
    legacy_tconfig = tconfig
    if deployment == "isolated":
        tlt_tconfig = replace(tconfig, traffic_class=0)
        legacy_tconfig = replace(tconfig, traffic_class=1)
    elif deployment == "shared-bad":
        # Legacy packets carry no TLT DSCP: the ACL classifies every
        # one of them unimportant (red) in the shared colored queue.
        legacy_tconfig = replace(tconfig, plain_color=Color.RED)

    hosts = [h.host_id for h in net.hosts]
    tlt_hosts = set(hosts[: len(hosts) // 2])

    tlt_flows: List[int] = []
    legacy_flows: List[int] = []

    def create(spec: FlowSpec) -> None:
        use_tlt = spec.src in tlt_hosts and deployment != "no-tlt"
        if use_tlt:
            create_flow("dctcp", net, spec, tlt_tconfig, TltConfig())
            tlt_flows.append(spec.flow_id)
        else:
            create_flow("dctcp", net, spec, legacy_tconfig, None)
            legacy_flows.append(spec.flow_id)

    background = BackgroundTraffic(
        net, DISTRIBUTIONS["web_search"], create, load=config.load,
        num_flows=scale.bg_flows, link_rate_bps=config.link_rate_bps,
    )
    background.schedule()
    incast = IncastTraffic(
        net, create, flow_size=8 * KB,
        flows_per_sender=scale.incast_flows_per_sender,
        num_events=scale.incast_events, interval_ns=600_000, start_ns=200_000,
    )
    incast.schedule()

    horizon = background.end_of_arrivals_ns + 100 * MILLIS
    drain(net, horizon, 3 * horizon)
    finish_run(net, control, auditor, config=config)

    def group_stats(flow_ids: List[int]):
        records = [net.stats.flows[f] for f in flow_ids]
        fg = sorted(
            r.fct_ns for r in records if r.group == "fg" and r.fct_ns is not None
        )
        timeouts = sum(r.timeouts for r in records)
        p99 = fg[int(0.99 * (len(fg) - 1))] / 1e6 if fg else 0.0
        return p99, timeouts

    tlt_p99, tlt_to = group_stats(tlt_flows)
    legacy_p99, legacy_to = group_stats(legacy_flows)
    return {
        "tlt_fg_p99_ms": tlt_p99,
        "legacy_fg_p99_ms": legacy_p99,
        "tlt_timeouts": float(tlt_to),
        "legacy_timeouts": float(legacy_to),
        "drops_red": float(net.stats.drops_red),
    }


def run(scale="small", seeds: Sequence[int] = (1,)) -> List[Dict]:
    scale = resolve_scale(scale)
    rows: List[Dict] = []
    for deployment in ("no-tlt", "shared-bad", "isolated"):
        row = average([_run(deployment, scale, seed) for seed in seeds])
        row["deployment"] = deployment
        rows.append(row)
    return rows
