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

from repro.experiments.common import all_zero, at_most, resolve_scale, run_grid
from repro.experiments.ext_faults import corruption_spec
from repro.experiments.scenarios import ScenarioConfig, ScenarioResult
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


def corruption_metrics(result: ScenarioResult) -> Dict:
    """Reducer: the incast's tail, timeouts and corrupted green packets."""
    stats = result.stats
    return {
        "fg_p99_ms": stats.fct_summary("fg")["p99"] / 1e6,
        "timeouts_per_1k": stats.timeouts_per_1k_flows(),
        "corrupted_green": float(stats.drops_fault_green),
        "incomplete": float(stats.incomplete_flows()),
    }


def run(scale="small", seeds: Sequence[int] = (1,),
        rates: Sequence[float] = DEFAULT_RATES) -> List[Dict]:
    scale = resolve_scale(scale)
    # Corruption on every switch, each drawing from a stream derived
    # from the scenario seed and the switch name: different seeds
    # corrupt different packet sets (so --seeds sweeps measure real
    # variance), the same seed is bit-reproducible.
    rows = run_grid([(ScenarioConfig(transport="dctcp", tlt=True, scale=scale,
                                     faults=corruption_spec(scale, rate)), IncastOnly())
                     for rate in rates], seeds, corruption_metrics)
    for row, rate in zip(rows, rates):
        row["corruption_rate"] = rate
    return rows


CLAIMS = {
    "flows-complete": (
        "The fallback is graceful: every flow completes at every corruption rate",
        lambda rows: all_zero({f"{r['corruption_rate']:g}": r["incomplete"] for r in rows})),
    "timeouts-return": (
        "TLT does not handle non-congestion loss: heavy corruption brings timeouts back",
        lambda rows: at_most({"timeouts_per_1k clean vs heaviest": (
            rows[0]["timeouts_per_1k"], rows[-1]["timeouts_per_1k"])})),
}
