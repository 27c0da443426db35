"""Figure 1 — distribution of RTT and estimated RTO for DCTCP.

The paper's motivation: even with RTO_min = 200 µs, dynamic shared
buffers make the RTT so volatile that the *estimated* RTO of foreground
flows is far larger than typical RTTs (>10% of foreground flows end up
with RTO above 1.1 ms while the 90th-percentile RTT is ~0.48 ms).

Output: CDF points (percentiles) of RTT samples and per-flow estimated
RTO for background and foreground flows.
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.common import print_table, resolve_scale
from repro.experiments.scenarios import ScenarioConfig, run_scenario
from repro.sim.units import MICROS
from repro.stats.percentile import percentiles

PERCENTILES = (10, 25, 50, 75, 90, 99)
COLUMNS = [f"p{p}" for p in PERCENTILES]


def run(scale="small", seed: int = 1) -> List[Dict]:
    config = ScenarioConfig(
        transport="dctcp",
        scale=resolve_scale(scale),
        rto_min_ns=200 * MICROS,
        seed=seed,
    )
    result = run_scenario(config)
    stats = result.stats
    rows: List[Dict] = []
    for group, rtts in (("bg", stats.rtt_samples_bg), ("fg", stats.rtt_samples_fg)):
        rtos = [
            r.final_rto_ns
            for r in stats.flows.values()
            if r.group == group and r.final_rto_ns is not None
        ]
        row: Dict = {"group": group, "metric": "rtt_us"}
        arr = [rtt / 1e3 for rtt in rtts] or [0.0]
        row.update(zip(COLUMNS, percentiles(arr, PERCENTILES)))
        rows.append(row)
        row = {"group": group, "metric": "rto_us"}
        arr = [rto / 1e3 for rto in rtos] or [0.0]
        row.update(zip(COLUMNS, percentiles(arr, PERCENTILES)))
        if group == "fg":
            row["frac_rto_gt_1.1ms"] = sum(rto > 1100 for rto in arr) / len(arr)
        rows.append(row)
    return rows


def main(scale="small") -> None:
    rows = run(scale)
    columns = ["group", "metric"] + COLUMNS + ["frac_rto_gt_1.1ms"]
    print_table(rows, columns, "Figure 1: RTT vs estimated RTO (DCTCP, RTO_min=200us)")


if __name__ == "__main__":
    main()
