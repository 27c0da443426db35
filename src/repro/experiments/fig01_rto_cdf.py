"""Figure 1 — distribution of RTT and estimated RTO for DCTCP.

The paper's motivation: even with RTO_min = 200 µs, dynamic shared
buffers make the RTT so volatile that the *estimated* RTO of foreground
flows is far larger than typical RTTs (>10% of foreground flows end up
with RTO above 1.1 ms while the 90th-percentile RTT is ~0.48 ms).

Output: CDF points (percentiles) of RTT samples and per-flow estimated
RTO for background and foreground flows.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.experiments.common import at_most, pick, resolve_scale, run_grid
from repro.experiments.scenarios import ScenarioConfig, ScenarioResult
from repro.experiments.schemes import RTO_200US
from repro.stats.percentile import percentiles

PERCENTILES = (10, 25, 50, 75, 90, 99)
COLUMNS = [f"p{p}" for p in PERCENTILES]

TABLES = {"": ("Figure 1: RTT vs estimated RTO (DCTCP, RTO_min=200us)",
               ["group", "metric"] + COLUMNS + ["frac_rto_gt_1.1ms"])}


def cdf_metrics(result: ScenarioResult) -> Dict[str, float]:
    """Reducer: the run's four table rows flattened into one, keyed
    ``<group>.<metric>.<column>``."""
    stats = result.stats
    row: Dict[str, float] = {}
    for group, rtts in (("bg", stats.rtt_samples_bg), ("fg", stats.rtt_samples_fg)):
        rtos = [
            r.final_rto_ns
            for r in stats.flows.values()
            if r.group == group and r.final_rto_ns is not None
        ]
        for metric, samples in (("rtt_us", rtts), ("rto_us", rtos)):
            arr = [ns / 1e3 for ns in samples] or [0.0]
            for column, value in zip(COLUMNS, percentiles(arr, PERCENTILES)):
                row[f"{group}.{metric}.{column}"] = value
            if (group, metric) == ("fg", "rto_us"):
                row["fg.rto_us.frac_rto_gt_1.1ms"] = sum(rto > 1100 for rto in arr) / len(arr)
    return row


def run(scale="small", seeds: Sequence[int] = (1,)) -> List[Dict]:
    config = ScenarioConfig(
        transport="dctcp",
        scale=resolve_scale(scale),
        recovery=RTO_200US,
    )
    [averaged] = run_grid([config], seeds, cdf_metrics)
    rows: Dict[tuple, Dict] = {}
    for key, value in averaged.items():
        group, metric, column = key.split(".", 2)
        row = rows.setdefault((group, metric), {"group": group, "metric": metric})
        row[column] = value
    return list(rows.values())


CLAIMS = {
    "rto-above-rtt": (
        "Estimated RTOs sit far above typical RTTs, even with RTO_min = 200 us",
        lambda rows: at_most({"bg RTT p50 vs RTO p90 (us)": (
            pick(rows, group="bg", metric="rtt_us")["p50"],
            pick(rows, group="bg", metric="rto_us")["p90"])})),
}
