"""Extension — non-congestion losses (§5 fallback behavior).

TLT guarantees delivery of *important* packets only against congestion
drops. When hardware corrupts packets (silent drops on a ToR), green
packets die too and TLT must gracefully fall back to the underlying
transport's RTO. This sweep injects uniform random corruption at every
switch and tracks how timeouts creep back in as the corruption rate
rises — demonstrating the fallback is graceful, not catastrophic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.experiments.common import average, resolve_scale
from repro.experiments.ext_faults import corruption_spec
from repro.experiments.scenarios import ScenarioConfig, run_scenario
from repro.sim.units import KB
from repro.workload.incast import IncastTraffic

DEFAULT_RATES = (0.0, 1e-5, 1e-4, 1e-3, 1e-2)

COLUMNS = ["corruption_rate", "fg_p99_ms", "timeouts_per_1k", "corrupted_green",
           "incomplete"]

TABLES = {"": ("Extension: TLT under non-congestion (corruption) losses", COLUMNS)}


@dataclass
class IncastOnly:
    """Workload: the scale's incast events of 8 kB flows, 600 µs apart
    from 100 µs, and no background traffic."""

    def __call__(self, config, net, create):
        scale = config.scale
        incast = IncastTraffic(
            net, create, flow_size=8 * KB,
            flows_per_sender=scale.incast_flows_per_sender,
            num_events=scale.incast_events, interval_ns=600_000, start_ns=100_000,
        )
        incast.schedule()
        return incast.specs[-1].start_ns, len(incast.specs)


def _run(rate: float, scale, seed: int = 1) -> Dict:
    # Corruption on every switch, each drawing from a stream derived
    # from the scenario seed and the switch name: different seeds
    # corrupt different packet sets (so --seeds sweeps measure real
    # variance), the same seed is bit-reproducible.
    config = ScenarioConfig(transport="dctcp", tlt=True, scale=scale, seed=seed,
                            faults=corruption_spec(scale, rate))
    stats = run_scenario(config, IncastOnly()).stats
    return {
        "fg_p99_ms": stats.fct_summary("fg")["p99"] / 1e6,
        "timeouts_per_1k": stats.timeouts_per_1k_flows(),
        "corrupted_green": float(stats.drops_fault_green),
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
