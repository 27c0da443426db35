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

from dataclasses import dataclass, replace
from typing import Dict, List, Sequence

from repro.core.config import TltConfig
from repro.experiments.common import average, resolve_scale
from repro.experiments.scenarios import (
    ScenarioConfig,
    make_transport_config,
    run_scenario,
)
from repro.net.packet import Color
from repro.sim.units import KB
from repro.switchsim.queue import EgressQueue
from repro.transport.base import FlowSpec
from repro.transport.registry import create_flow
from repro.workload.background import BackgroundTraffic
from repro.workload.distributions import DISTRIBUTIONS
from repro.workload.incast import IncastTraffic

COLUMNS = ["deployment", "tlt_fg_p99_ms", "legacy_fg_p99_ms",
           "tlt_timeouts", "legacy_timeouts", "drops_red"]

TABLES = {"": ("Extension: incremental deployment (half TLT, half legacy)", COLUMNS)}


@dataclass
class MixedDeployment:
    """Workload: the first half of the hosts send DCTCP+TLT, the rest
    legacy DCTCP, in one background + incast mix, with the switches set
    up for ``deployment``. ``tlt_flows`` and ``legacy_flows`` (flow ids)
    are set when it runs."""

    deployment: str

    def __call__(self, config, net, create):
        deployment = self.deployment
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

        tconfig = make_transport_config(config)
        tlt_tconfig = legacy_tconfig = tconfig
        if deployment == "isolated":
            tlt_tconfig = replace(tconfig, traffic_class=0)
            legacy_tconfig = replace(tconfig, traffic_class=1)
        elif deployment == "shared-bad":
            # Legacy packets carry no TLT DSCP: the ACL classifies every
            # one of them unimportant (red) in the shared colored queue.
            legacy_tconfig = replace(tconfig, plain_color=Color.RED)

        hosts = [h.host_id for h in net.hosts]
        tlt_hosts = set(hosts[: len(hosts) // 2])
        self.tlt_flows: List[int] = []
        self.legacy_flows: List[int] = []

        def create_mixed(spec: FlowSpec) -> None:
            if spec.src in tlt_hosts and deployment != "no-tlt":
                create_flow("dctcp", net, spec, tlt_tconfig, TltConfig())
                self.tlt_flows.append(spec.flow_id)
            else:
                create_flow("dctcp", net, spec, legacy_tconfig, None)
                self.legacy_flows.append(spec.flow_id)

        scale = config.scale
        background = BackgroundTraffic(
            net, DISTRIBUTIONS["web_search"], create_mixed, load=config.load,
            num_flows=scale.bg_flows, link_rate_bps=config.link_rate_bps,
        )
        background.schedule()
        incast = IncastTraffic(
            net, create_mixed, flow_size=8 * KB,
            flows_per_sender=scale.incast_flows_per_sender,
            num_events=scale.incast_events, interval_ns=600_000, start_ns=200_000,
        )
        incast.schedule()
        return background.end_of_arrivals_ns, len(background.specs) + len(incast.specs)


def _run(deployment: str, scale, seed: int = 1) -> Dict:
    config = ScenarioConfig(transport="dctcp", tlt=True, scale=scale, seed=seed)
    workload = MixedDeployment(deployment)
    stats = run_scenario(config, workload).stats

    def group_stats(flow_ids: List[int]):
        records = [stats.flows[f] for f in flow_ids]
        fg = sorted(
            r.fct_ns for r in records if r.group == "fg" and r.fct_ns is not None
        )
        timeouts = sum(r.timeouts for r in records)
        p99 = fg[int(0.99 * (len(fg) - 1))] / 1e6 if fg else 0.0
        return p99, timeouts

    tlt_p99, tlt_to = group_stats(workload.tlt_flows)
    legacy_p99, legacy_to = group_stats(workload.legacy_flows)
    return {
        "tlt_fg_p99_ms": tlt_p99,
        "legacy_fg_p99_ms": legacy_p99,
        "tlt_timeouts": float(tlt_to),
        "legacy_timeouts": float(legacy_to),
        "drops_red": float(stats.drops_red),
    }


def run(scale="small", seeds: Sequence[int] = (1,)) -> List[Dict]:
    scale = resolve_scale(scale)
    rows: List[Dict] = []
    for deployment in ("no-tlt", "shared-bad", "isolated"):
        row = average([_run(deployment, scale, seed) for seed in seeds])
        row["deployment"] = deployment
        rows.append(row)
    return rows
