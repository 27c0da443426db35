"""Figure 16 (Appendix B) — CDF of segment delivery time.

Delivery time = first transmission of a segment until it is
acknowledged, including retransmissions. The paper: TLT cuts the
99%-ile by ~23% and the 99.9%-ile by ~58% for DCTCP without PFC.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.experiments.common import at_most, pick, resolve_scale, run_grid, vs
from repro.experiments.scenarios import ScenarioConfig, ScenarioResult
from repro.stats.percentile import percentiles

PERCENTILES = (50, 90, 99, 99.9)

COLUMNS = ["scheme"] + [f"p{p}_us" for p in PERCENTILES]

TABLES = {"": ("Figure 16: segment delivery time CDF (DCTCP)", COLUMNS)}


def delivery_metrics(result: ScenarioResult) -> Dict[str, float]:
    """Reducer: percentiles of the run's segment delivery times."""
    samples = [ns / 1e3 for ns in result.stats.delivery_samples]
    return dict(zip(COLUMNS[1:], percentiles(samples, PERCENTILES)))


def run(scale="small", seeds: Sequence[int] = (1,), load: float = 0.3) -> List[Dict]:
    scale = resolve_scale(scale)
    schemes = {
        name: ScenarioConfig(transport="dctcp", tlt=tlt, scale=scale, load=load,
                             incast_flow_size=16_000)
        for name, tlt in (("dctcp", False), ("dctcp+tlt", True))
    }
    rows = run_grid(list(schemes.values()), seeds, delivery_metrics)
    for row, name in zip(rows, schemes):
        row["scheme"] = name
    return rows


def _delivery_tail(rows: List[Dict]):
    tlt = pick(rows, scheme="dctcp+tlt")["p99.9_us"]
    base = pick(rows, scheme="dctcp")["p99.9_us"]
    if base > 2_000:  # the baseline tail is timeout-dominated
        return tlt < base, f"p99.9_us {vs(tlt, base)}"
    # Light congestion: TLT's proactive red drops may add a little.
    return at_most({"p99.9_us": (tlt, base)}, factor=2.0)


CLAIMS = {
    "tlt-delivery-tail": ("TLT cuts the segment delivery time tail (-57.6 % at p99.9) "
                          "when it is timeout-dominated (within 2x of it under 2 ms)",
                          _delivery_tail),
}
