"""Figure 17 (Appendix B) — adaptive important ACK-clocking ablation.

Three clocking policies under DCTCP+TLT+PFC: always 1 MTU (fast
recovery, heavy bandwidth, more PAUSE), always 1 byte (cheap but slow
recovery) and the paper's adaptive policy (near-MTU recovery speed at a
fraction of the clocking bytes).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.core.config import ClockingPolicy, TltConfig
from repro.experiments.common import at_most, pick, resolve_scale, run_grid
from repro.experiments.scenarios import ScenarioConfig

COLUMNS = ["policy", "fg_p99_ms", "fg_p999_ms", "clocking_kB", "pause_per_1k"]

TABLES = {"": ("Figure 17: important ACK-clocking policy ablation (DCTCP+TLT+PFC)",
               COLUMNS)}


def clocking_metrics(result):
    """Summary row plus clocking bytes (module-level so the parallel
    runner can address it from worker processes and cache on it)."""
    row = result.summary_row()
    row["clocking_kB"] = result.stats.clocking_bytes / 1e3
    return row


def run(scale="small", seeds: Sequence[int] = (1,)) -> List[Dict]:
    scale = resolve_scale(scale)
    policies = (ClockingPolicy.ALWAYS_MTU, ClockingPolicy.ALWAYS_1B, ClockingPolicy.ADAPTIVE)
    rows = run_grid(
        [ScenarioConfig(transport="dctcp", tlt=True, pfc=True, scale=scale,
                        tlt_config=TltConfig(clocking=policy))
         for policy in policies],
        seeds, clocking_metrics)
    for row, policy in zip(rows, policies):
        row["policy"] = policy.value
    return rows


CLAIMS = {
    "adaptive-clocking-bytes-no-more-than-mtu": (
        "Adaptive clocking uses far less clocking bandwidth than 1-MTU clocking (6.9x)",
        lambda rows: at_most({"clocking_kB": (pick(rows, policy="adaptive")["clocking_kB"],
                                              pick(rows, policy="mtu")["clocking_kB"])})),
    "adaptive-tail-within-1.5x-of-1b": (
        "Adaptive clocking recovers faster than 1-byte clocking at the tail",
        lambda rows: at_most({"fg_p999_ms": (pick(rows, policy="adaptive")["fg_p999_ms"],
                                             pick(rows, policy="1b")["fg_p999_ms"])},
                             factor=1.5)),
}
