"""Figure 18 (Appendix B) — sensitivity to the incast degree.

The per-host number of simultaneous foreground flows sweeps from 2 to
10 (TCP and HPCC, with and without TLT). The paper: TLT's advantage
grows with the incast degree — up to 78.9% (HPCC) and 67.0% (TCP)
lower 99.9% foreground FCT at high degrees.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.experiments.common import at_most, pick, resolve_scale, run_grid
from repro.experiments.scenarios import ScenarioConfig

DEFAULT_DEGREES = (2, 4, 6, 8, 10)

COLUMNS = ["transport", "tlt", "degree", "fg_p99_ms", "fg_p999_ms", "bg_avg_ms"]

TABLES = {"": ("Figure 18: FCT vs incast degree", COLUMNS)}


def run(scale="small", seeds: Sequence[int] = (1,),
        degrees: Sequence[int] = DEFAULT_DEGREES,
        transports=("tcp", "hpcc"),
        flow_size: int = 16_000) -> List[Dict]:
    # The paper uses 8 kB incast flows on 96 hosts; at the scaled-down
    # topology 16 kB keeps the high-degree bursts past the buffer knee
    # (same burst-volume/buffer ratio — see DESIGN.md §6).
    scale = resolve_scale(scale)
    grid = [(transport, tlt, degree)
            for transport in transports for tlt in (False, True) for degree in degrees]
    rows = run_grid(
        [ScenarioConfig(transport=transport, tlt=tlt, scale=scale,
                        incast_flow_size=flow_size, incast_flows_per_sender=degree)
         for transport, tlt, degree in grid],
        seeds)
    for row, (transport, tlt, degree) in zip(rows, grid):
        row.update(transport=transport, tlt=tlt, degree=degree)
    return rows


CLAIMS = {
    "tlt-tail-no-higher-at-degree-10": (
        "TLT's win grows with the incast degree (-67.0 % TCP, -78.9 % HPCC fg p99.9)",
        lambda rows: at_most({t: (pick(rows, transport=t, tlt=True, degree=10)["fg_p999_ms"],
                                  pick(rows, transport=t, tlt=False, degree=10)["fg_p999_ms"])
                              for t in ("tcp", "hpcc")})),
}
