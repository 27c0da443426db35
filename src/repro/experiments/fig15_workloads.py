"""Figure 15 (table) — 99.9%-ile foreground FCT across workloads/loads.

Web search, web server and cache follower background distributions at
loads 0.2-0.5. The paper: for (DC)TCP and IRN, TLT wins across the
board; for DCQCN+SACK and HPCC+SACK, PFC keeps lower foreground tails
(those transports throttle background flows enough to avoid PAUSE),
while TLT still helps the background.

The full grid is 144 runs; the default arguments cover a representative
subset (all three workloads, one load, baseline-vs-TLT per transport).
Pass ``loads=(0.2, 0.3, 0.4, 0.5)`` and ``full_schemes=True`` for the
paper's complete table.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.experiments.common import at_most, pick, resolve_scale, run_grid
from repro.experiments.scenarios import ScenarioConfig
from repro.experiments.schemes import roce_schemes, tcp_schemes

WORKLOADS = ("web_search", "web_server", "cache_follower")

COLUMNS = ["workload", "load", "transport", "scheme", "fg_p999_ms", "bg_avg_ms"]

TABLES = {"": ("Figure 15: 99.9% foreground FCT across workloads", COLUMNS)}


def _schemes_for(transport: str, base: ScenarioConfig, full: bool) -> Dict[str, ScenarioConfig]:
    if transport in ("tcp", "dctcp"):
        schemes = tcp_schemes(base)
        if not full:
            schemes = {k: schemes[k] for k in ("baseline", "tlt")}
    else:
        schemes = roce_schemes(base)
        if not full:
            keep = ("baseline+pfc", "tlt") if "baseline+pfc" in schemes else ("baseline", "tlt")
            schemes = {k: schemes[k] for k in keep}
    return schemes


def run(
    scale="small",
    seeds: Sequence[int] = (1,),
    workloads: Sequence[str] = WORKLOADS,
    loads: Sequence[float] = (0.3,),
    transports: Sequence[str] = ("dctcp", "tcp", "dcqcn-sack", "irn", "hpcc"),
    full_schemes: bool = False,
) -> List[Dict]:
    scale = resolve_scale(scale)
    grid = []
    for workload in workloads:
        for load in loads:
            for transport in transports:
                base = ScenarioConfig(
                    transport=transport, scale=scale, workload=workload, load=load
                )
                grid += [
                    (dict(workload=workload, load=load, transport=transport, scheme=name),
                     config)
                    for name, config in _schemes_for(transport, base, full_schemes).items()
                ]
    rows = run_grid([config for _labels, config in grid], seeds)
    for row, (labels, _config) in zip(rows, grid):
        row.update(labels)
    return rows


CLAIMS = {
    "tlt-tail-within-1.5x": (
        "For (DC)TCP and IRN, TLT beats the baseline's foreground tail in every workload",
        lambda rows: at_most(
            {f"{w}/{t}": (pick(rows, workload=w, transport=t, scheme="tlt")["fg_p999_ms"],
                          pick(rows, workload=w, transport=t, scheme="baseline")["fg_p999_ms"])
             for w in WORKLOADS for t in ("dctcp", "irn")}, factor=1.5)),
}
