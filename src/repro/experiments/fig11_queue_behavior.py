"""Figure 11 — (a) important fraction vs threshold K; (b) queue sizes.

TLT keeps the unimportant (red) queue under the color-aware dropping
threshold and the *total* maximum queue well below vanilla DCTCP's
burst-driven maximum, while the median queue stays near/below K_ECN.
"""

from __future__ import annotations

import statistics
from dataclasses import replace
from typing import Dict, List, Sequence

from repro.experiments.common import print_table, resolve_scale
from repro.experiments.scenarios import ScenarioConfig, run_scenario
from repro.sim.units import KB

DEFAULT_THRESHOLDS = tuple(k * KB for k in (100, 200, 400, 700))

COLUMNS_A = ["threshold_kB", "important_fraction", "important_loss_rate"]
COLUMNS_B = ["scheme", "max_queue_kB", "max_red_queue_kB", "median_queue_kB"]


def run_fraction(scale="small", seed: int = 1,
                 thresholds: Sequence[int] = DEFAULT_THRESHOLDS) -> List[Dict]:
    """Panel (a): fraction of important packets by threshold (fg 5%)."""
    scale = resolve_scale(scale)
    base = ScenarioConfig(transport="dctcp", tlt=True, scale=scale, seed=seed)
    rows = []
    for k in thresholds:
        result = run_scenario(replace(base, color_threshold_bytes=k))
        rows.append(
            {
                "threshold_kB": k // KB,
                "important_fraction": result.stats.important_fraction_bytes(),
                "important_loss_rate": result.stats.important_loss_rate(),
            }
        )
    return rows


def run_queues(scale="small", seed: int = 1) -> List[Dict]:
    """Panel (b): queue occupancy with and without TLT (DCTCP)."""
    scale = resolve_scale(scale)
    rows = []
    for name, tlt in (("dctcp", False), ("dctcp+tlt", True)):
        config = ScenarioConfig(transport="dctcp", tlt=tlt, scale=scale, seed=seed)
        result = run_scenario(config)
        max_queue = max(s.max_queue_occupancy() for s in result.net.switches)
        max_red = max(s.max_red_occupancy() for s in result.net.switches)
        rows.append(
            {
                "scheme": name,
                "max_queue_kB": max_queue / KB,
                "max_red_queue_kB": max_red / KB,
                # Mean of the middle pair, not the percentile lerp.
                "median_queue_kB": statistics.median(result.queue_samples or [0]) / KB,
            }
        )
    return rows


def run(scale="small", seed: int = 1) -> Dict[str, List[Dict]]:
    return {"fraction": run_fraction(scale, seed), "queues": run_queues(scale, seed)}


def main(scale="small") -> None:
    results = run(scale)
    print_table(results["fraction"], COLUMNS_A,
                "Figure 11a: important fraction vs threshold")
    print_table(results["queues"], COLUMNS_B,
                "Figure 11b: queue occupancy with/without TLT")


if __name__ == "__main__":
    main()
