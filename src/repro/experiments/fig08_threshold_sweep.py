"""Figure 8 — impact of the color-aware dropping threshold (DCTCP+TLT).

Without PFC: a small K drops more red packets (hurting background
flows); a large K lets the queue grow until important packets drop and
timeouts reappear at the tail. With PFC: larger K triggers PAUSE more.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Sequence

from repro.experiments.common import at_most, resolve_scale, run_grid
from repro.experiments.scenarios import ScenarioConfig
from repro.sim.units import KB

DEFAULT_THRESHOLDS = tuple(k * KB for k in (100, 200, 400, 700, 1000))

COLUMNS = ["pfc", "threshold_kB", "fg_p99_ms", "fg_p999_ms", "bg_avg_ms",
           "timeouts_per_1k", "pause_per_1k", "important_loss_rate"]

TABLES = {"": ("Figure 8: FCT vs color-aware dropping threshold (DCTCP+TLT)", COLUMNS)}


def run(scale="small", seeds: Sequence[int] = (1,),
        thresholds: Sequence[int] = DEFAULT_THRESHOLDS) -> List[Dict]:
    scale = resolve_scale(scale)
    base = ScenarioConfig(transport="dctcp", tlt=True, scale=scale)
    grid = [(pfc, k) for pfc in (False, True) for k in thresholds]
    rows = run_grid([replace(base, pfc=pfc, color_threshold_bytes=k) for pfc, k in grid],
                    seeds)
    for row, (pfc, k) in zip(rows, grid):
        row.update(pfc=pfc, threshold_kB=k // KB)
    return rows


def _largest_k_bg_fct(rows: List[Dict]):
    no_pfc = [r for r in rows if not r["pfc"]]
    return at_most({"bg_avg_ms": (no_pfc[-1]["bg_avg_ms"], no_pfc[0]["bg_avg_ms"])},
                   factor=1.5)


CLAIMS = {
    "largest-k-bg-fct-within-1.5x": ("A larger K leaves more room for red packets: "
                                     "background FCT does not get worse as K grows (Fig 8a)",
                                     _largest_k_bg_fct),
}
