"""Figure 5 — FCT for TCP and DCTCP across recovery schemes.

Load 40%, 5% foreground, color-aware dropping threshold 400 kB. The
paper's key observations: (1) with PFC the foreground tail drops but
background FCT balloons (HoL blocking); (2) TLT cuts the foreground
99.9%-ile by ~80% versus the 4 ms baseline with only a slight increase
in background FCT and performs similarly with or without PFC.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.experiments.common import all_zero, at_most, pick, resolve_scale, run_grid
from repro.experiments.scenarios import ScenarioConfig
from repro.experiments.schemes import tcp_schemes

COLUMNS = ["transport", "scheme", "fg_p99_ms", "fg_p999_ms", "bg_avg_ms",
           "timeouts_per_1k", "incomplete"]

TABLES = {"": ("Figure 5: FCT for TCP/DCTCP (40% load, 5% fg, K=400kB)", COLUMNS)}


def run(scale="small", seeds: Sequence[int] = (1,), transports=("dctcp", "tcp")) -> List[Dict]:
    scale = resolve_scale(scale)
    grid = [
        (dict(transport=transport, scheme=name), config)
        for transport in transports
        for name, config in tcp_schemes(ScenarioConfig(transport=transport, scale=scale)).items()
    ]
    rows = run_grid([config for _labels, config in grid], seeds)
    for row, (labels, _config) in zip(rows, grid):
        row.update(labels)
    return rows


CLAIMS = {
    "tlt-no-more-timeouts": (
        "TLT (virtually) eliminates timeouts versus the 4 ms baseline",
        lambda rows: at_most({t: (pick(rows, transport=t, scheme="tlt")["timeouts_per_1k"],
                                  pick(rows, transport=t, scheme="baseline")["timeouts_per_1k"])
                              for t in ("dctcp", "tcp")})),
    "tlt-flows-complete": (
        "Every TLT flow completes",
        lambda rows: all_zero({t: pick(rows, transport=t, scheme="tlt")["incomplete"]
                               for t in ("dctcp", "tcp")})),
}
