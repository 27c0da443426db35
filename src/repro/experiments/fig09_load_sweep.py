"""Figure 9 — sensitivity to network load (10-60%), HPCC+PFC and
DCTCP+PFC with and without TLT.

Transports that don't cut their rate on loss (HPCC) benefit from TLT at
every load; loss-reacting transports (DCTCP) benefit until ~50% load,
after which retransmission penalties outweigh the HoL-blocking savings.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.experiments.common import resolve_scale, run_grid
from repro.experiments.scenarios import ScenarioConfig

DEFAULT_LOADS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)

COLUMNS = ["transport", "tlt", "load", "fg_p99_ms", "fg_p999_ms", "bg_avg_ms",
           "pause_per_1k"]

TABLES = {"": ("Figure 9: FCT vs network load (PFC on, with/without TLT)", COLUMNS)}


def run(scale="small", seeds: Sequence[int] = (1,),
        loads: Sequence[float] = DEFAULT_LOADS,
        transports=("hpcc", "dctcp")) -> List[Dict]:
    scale = resolve_scale(scale)
    grid = [(transport, tlt, load)
            for transport in transports for tlt in (False, True) for load in loads]
    rows = run_grid(
        [ScenarioConfig(transport=transport, tlt=tlt, pfc=True, scale=scale, load=load)
         for transport, tlt, load in grid],
        seeds)
    for row, (transport, tlt, load) in zip(rows, grid):
        row.update(transport=transport, tlt=tlt, load=load)
    return rows


#: None checked: the load crossover is read off the table.
CLAIMS: Dict = {}
