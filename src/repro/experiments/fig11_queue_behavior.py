"""Figure 11 — (a) important fraction vs threshold K; (b) queue sizes.

TLT keeps the unimportant (red) queue under the color-aware dropping
threshold and the *total* maximum queue well below vanilla DCTCP's
burst-driven maximum, while the median queue stays near/below K_ECN.
"""

from __future__ import annotations

import statistics
from dataclasses import replace
from typing import Dict, List, Sequence

from repro.experiments.common import at_most, pick, resolve_scale, run_grid
from repro.experiments.scenarios import ScenarioConfig, ScenarioResult
from repro.sim.units import KB

DEFAULT_THRESHOLDS = tuple(k * KB for k in (100, 200, 400, 700))

COLUMNS_A = ["threshold_kB", "important_fraction", "important_loss_rate"]
COLUMNS_B = ["scheme", "max_queue_kB", "max_red_queue_kB", "median_queue_kB"]

TABLES = {
    "fraction": ("Figure 11a: important fraction vs threshold", COLUMNS_A),
    "queues": ("Figure 11b: queue occupancy with/without TLT", COLUMNS_B),
}


def fraction_metrics(result: ScenarioResult) -> Dict[str, float]:
    """Reducer for panel (a): how much of the traffic is important."""
    return {
        "important_fraction": result.stats.important_fraction_bytes(),
        "important_loss_rate": result.stats.important_loss_rate(),
    }


def queue_metrics(result: ScenarioResult) -> Dict[str, float]:
    """Reducer for panel (b): the fabric's queue occupancy."""
    switches = result.net.switches
    return {
        "max_queue_kB": max(s.max_queue_occupancy() for s in switches) / KB,
        "max_red_queue_kB": max(s.max_red_occupancy() for s in switches) / KB,
        # Mean of the middle pair, not the percentile lerp.
        "median_queue_kB": statistics.median(result.queue_samples or [0]) / KB,
    }


def run(scale="small", seeds: Sequence[int] = (1,),
        thresholds: Sequence[int] = DEFAULT_THRESHOLDS) -> Dict[str, List[Dict]]:
    scale = resolve_scale(scale)
    # Panel (a): fraction of important packets by threshold (fg 5%).
    base = ScenarioConfig(transport="dctcp", tlt=True, scale=scale)
    fraction = run_grid([replace(base, color_threshold_bytes=k) for k in thresholds], seeds,
                        fraction_metrics)
    for row, k in zip(fraction, thresholds):
        row["threshold_kB"] = k // KB
    # Panel (b): queue occupancy with and without TLT (DCTCP).
    schemes = {"dctcp": replace(base, tlt=False), "dctcp+tlt": base}
    queues = run_grid(list(schemes.values()), seeds, queue_metrics)
    for row, name in zip(queues, schemes):
        row["scheme"] = name
    return {"fraction": fraction, "queues": queues}


CLAIMS = {
    "red-queue-under-400kB": (
        "TLT caps the red queue at the 400 kB threshold",
        lambda result: at_most({"max_red_queue_kB": (
            pick(result["queues"], scheme="dctcp+tlt")["max_red_queue_kB"], 400)})),
    "tlt-max-queue-no-higher": (
        "TLT keeps the total maximum queue below DCTCP's (-23.1 %)",
        lambda result: at_most({"max_queue_kB": (
            pick(result["queues"], scheme="dctcp+tlt")["max_queue_kB"],
            pick(result["queues"], scheme="dctcp")["max_queue_kB"])})),
}
