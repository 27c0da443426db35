"""Extension — non-congestion losses (§5 fallback behavior).

TLT guarantees delivery of *important* packets only against congestion
drops. When hardware corrupts packets (silent drops on a ToR), green
packets die too and TLT must gracefully fall back to the underlying
transport's RTO. This sweep injects uniform random corruption at every
switch and tracks how timeouts creep back in as the corruption rate
rises — demonstrating the fallback is graceful, not catastrophic.
"""

from __future__ import annotations

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
from repro.faults import FaultInjector
from repro.sim.units import KB, MILLIS
from repro.transport.base import FlowSpec
from repro.transport.registry import create_flow
from repro.workload.incast import IncastTraffic

DEFAULT_RATES = (0.0, 1e-5, 1e-4, 1e-3, 1e-2)

COLUMNS = ["corruption_rate", "fg_p99_ms", "timeouts_per_1k", "corrupted_green",
           "incomplete"]

TABLES = {"": ("Extension: TLT under non-congestion (corruption) losses", COLUMNS)}


def _run(rate: float, scale, seed: int = 1) -> Dict:
    config = ScenarioConfig(transport="dctcp", tlt=True, scale=scale, seed=seed)
    net = build_network(config)
    control = run_control(config)
    auditor = attach_auditor(net, control)
    # Each injector draws from a stream derived from the scenario seed
    # and the device name: different seeds corrupt different packet
    # sets (so --seeds sweeps measure real variance), the same seed is
    # bit-reproducible.
    injectors = [
        FaultInjector(
            switch, rate,
            rng=net.rng.stream(f"fault.corruption.{switch.name}"),
            stats=net.stats,
        )
        for switch in net.switches
    ]
    tconfig = make_transport_config(config)

    def create(spec: FlowSpec) -> None:
        create_flow("dctcp", net, spec, tconfig, TltConfig())

    incast = IncastTraffic(
        net, create, flow_size=8 * KB,
        flows_per_sender=scale.incast_flows_per_sender,
        num_events=scale.incast_events, interval_ns=600_000, start_ns=100_000,
    )
    incast.schedule()
    horizon = incast.specs[-1].start_ns + 100 * MILLIS
    drain(net, horizon, 3 * horizon)
    finish_run(net, control, auditor, config=config)

    stats = net.stats
    return {
        "fg_p99_ms": stats.fct_summary("fg")["p99"] / 1e6,
        "timeouts_per_1k": stats.timeouts_per_1k_flows(),
        "corrupted_green": float(sum(i.corrupted_green for i in injectors)),
        "incomplete": float(stats.incomplete_flows()),
    }


def run(scale="small", seeds: Sequence[int] = (1,),
        rates: Sequence[float] = DEFAULT_RATES) -> List[Dict]:
    scale = resolve_scale(scale)
    rows: List[Dict] = []
    for rate in rates:
        row = average([_run(rate, scale, seed) for seed in seeds])
        row["corruption_rate"] = rate
        rows.append(row)
    return rows
