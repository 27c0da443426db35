"""Table 1 (Appendix B) — important-packet loss rate.

Loss rate of green packets for TLT+DCTCP and TLT+TCP across
color-aware dropping thresholds (400/500/600 kB) and foreground shares
(5%/10%), without PFC. The paper: zero at 400 kB with 5% foreground,
growing with both the threshold (less room reserved for green) and the
churn (more foreground traffic).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.experiments.common import pick, resolve_scale, run_grid
from repro.experiments.scenarios import ScenarioConfig
from repro.sim.units import KB

DEFAULT_THRESHOLDS = (400 * KB, 500 * KB, 600 * KB)
DEFAULT_SHARES = (0.05, 0.10)

COLUMNS = ["transport", "fg_share", "threshold_kB", "important_loss_rate",
           "timeouts_per_1k"]

TABLES = {"": ("Table 1: important packet loss rate", COLUMNS)}


def run(scale="small", seeds: Sequence[int] = (1,),
        thresholds: Sequence[int] = DEFAULT_THRESHOLDS,
        shares: Sequence[float] = DEFAULT_SHARES,
        transports=("dctcp", "tcp"),
        include_stress: bool = True) -> List[Dict]:
    scale = resolve_scale(scale)
    points = [(share, k) for share in shares for k in thresholds]
    if include_stress:
        # Beyond the paper's grid: a threshold near the dynamic-
        # threshold ceiling plus heavy churn, where green packets
        # finally start to drop (the mechanism's limit, §4.2).
        points += [(0.10, 1000 * KB), (0.20, 1000 * KB)]
    grid = [(transport, share, k) for transport in transports for share, k in points]
    rows = run_grid(
        [ScenarioConfig(transport=transport, tlt=True, scale=scale, fg_share=share,
                        color_threshold_bytes=k)
         for transport, share, k in grid],
        seeds)
    for row, (transport, share, k) in zip(rows, grid):
        row.update(transport=transport, fg_share=share, threshold_kB=k // KB)
    return rows


def _no_important_loss_at_400(rows: List[Dict]):
    rate = pick(rows, transport="dctcp", threshold_kB=400, fg_share=0.05)["important_loss_rate"]
    return rate < 1e-4, rate


CLAIMS = {
    "dctcp-no-important-loss-at-400kB-5pct": (
        "DCTCP+TLT loses no important packet at K = 400 kB with 5 % foreground",
        _no_important_loss_at_400),
}
