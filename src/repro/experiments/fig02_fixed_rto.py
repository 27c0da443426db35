"""Figure 2 — the aggressive-static-RTO strawman (§2.2).

A fixed 160 µs RTO (2x base RTT) against the 4 ms RTO_min baseline with
15% foreground traffic. The paper's finding: the fixed RTO improves
foreground tails (~41%) but inflates background FCT (~113%) through a
~51x increase in (often spurious) timeouts.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Sequence

from repro.experiments.common import pick, resolve_scale, run_grid, vs
from repro.experiments.scenarios import ScenarioConfig
from repro.sim.units import MICROS

TABLES = {"": ("Figure 2: fixed 160us RTO vs 4ms RTO_min (DCTCP, 15% foreground)",
               ["scheme", "fg_p99_ms", "fg_p999_ms", "bg_avg_ms", "timeouts_per_1k",
                "timeout_ratio_vs_baseline"])}


def run(scale="small", seeds: Sequence[int] = (1,)) -> List[Dict]:
    base = ScenarioConfig(transport="dctcp", scale=resolve_scale(scale), fg_share=0.15)
    variants = {
        "baseline_4ms": base,
        "fixed_160us": replace(base, recovery={"name": "fixed-rto", "rto_ns": 160 * MICROS}),
    }
    rows = run_grid(list(variants.values()), seeds)
    for row, name in zip(rows, variants):
        row["scheme"] = name
    if rows[0]["timeouts_per_1k"] > 0:
        rows[1]["timeout_ratio_vs_baseline"] = (
            rows[1]["timeouts_per_1k"] / rows[0]["timeouts_per_1k"]
        )
    return rows


def _fixed_rto_fires_more(rows: List[Dict]):
    fixed = pick(rows, scheme="fixed_160us")["timeouts_per_1k"]
    base = pick(rows, scheme="baseline_4ms")["timeouts_per_1k"]
    return fixed > base, f"timeouts_per_1k {vs(fixed, base)}"


CLAIMS = {
    "fixed-rto-fires-more": ("A fixed 160 us RTO fires far more timeouts than the "
                             "4 ms RTO_min (51x)", _fixed_rto_fires_more),
}
