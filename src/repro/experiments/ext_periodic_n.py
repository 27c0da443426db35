"""Extension — sensitivity to the periodic marking interval N (§5.2).

For rate-based TLT on vanilla DCQCN, one extra packet in every N is
marked important so long flows detect losses promptly. The paper
(footnote 2) reports TLT is insensitive to N: tail FCT differs by less
than 3% between N = 96 and N = 384. This ablation sweeps N, including
"disabled" (last-packet marking only).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence

from repro.core.config import TltConfig
from repro.experiments.common import at_most, pick, resolve_scale, run_grid
from repro.experiments.scenarios import ScenarioConfig

DEFAULT_NS: Sequence[Optional[int]] = (None, 48, 96, 192, 384)

COLUMNS = ["periodic_n", "fg_p99_ms", "fg_p999_ms", "bg_avg_ms",
           "important_fraction", "timeouts_per_1k"]

TABLES = {"": ("Extension: periodic marking interval N (vanilla DCQCN + TLT)", COLUMNS)}


def run(scale="small", seeds: Sequence[int] = (1,),
        ns: Sequence[Optional[int]] = DEFAULT_NS) -> List[Dict]:
    scale = resolve_scale(scale)
    base = ScenarioConfig(transport="dcqcn", tlt=True, scale=scale)
    rows = run_grid([replace(base, tlt_config=TltConfig(periodic_n=n)) for n in ns], seeds)
    for row, n in zip(rows, ns):
        row["periodic_n"] = "off" if n is None else n
    return rows


CLAIMS = {
    "smaller-n-marks-more": (
        "One mark every N packets: a smaller N marks more packets important",
        lambda rows: at_most({"important_fraction N=384 vs 48": (
            pick(rows, periodic_n=384)["important_fraction"],
            pick(rows, periodic_n=48)["important_fraction"])})),
}
