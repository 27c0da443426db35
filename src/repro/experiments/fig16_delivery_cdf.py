"""Figure 16 (Appendix B) — CDF of segment delivery time.

Delivery time = first transmission of a segment until it is
acknowledged, including retransmissions. The paper: TLT cuts the
99%-ile by ~23% and the 99.9%-ile by ~58% for DCTCP without PFC.
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.common import print_table, resolve_scale
from repro.experiments.scenarios import ScenarioConfig, run_scenario
from repro.stats.percentile import percentiles

PERCENTILES = (50, 90, 99, 99.9)

COLUMNS = ["scheme"] + [f"p{p}_us" for p in PERCENTILES]


def run(scale="small", seed: int = 1, load: float = 0.3) -> List[Dict]:
    scale = resolve_scale(scale)
    rows: List[Dict] = []
    for name, tlt in (("dctcp", False), ("dctcp+tlt", True)):
        config = ScenarioConfig(
            transport="dctcp", tlt=tlt, scale=scale, seed=seed, load=load,
            incast_flow_size=16_000,
        )
        result = run_scenario(config)
        samples = [ns / 1e3 for ns in result.stats.delivery_samples]
        row: Dict = {"scheme": name}
        row.update(zip(COLUMNS[1:], percentiles(samples, PERCENTILES)))
        rows.append(row)
    return rows


def main(scale="small") -> None:
    print_table(run(scale), COLUMNS, "Figure 16: segment delivery time CDF (DCTCP)")


if __name__ == "__main__":
    main()
