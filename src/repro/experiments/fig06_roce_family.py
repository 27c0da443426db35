"""Figure 6 — FCT for HPCC, DCQCN+IRN, DCQCN+SACK and vanilla DCQCN.

Load 40%, 5% foreground, color-aware dropping threshold 200 kB. Key
shapes: HPCC without PFC suffers first-RTT bursts, which TLT fixes to
near-lossless performance; IRN+TLT cuts the foreground tail; TLT
reduces PAUSE pressure for DCQCN+SACK.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.experiments.common import at_most, pick, resolve_scale, run_grid
from repro.experiments.scenarios import ScenarioConfig
from repro.experiments.schemes import roce_schemes

COLUMNS = ["transport", "scheme", "fg_p99_ms", "fg_p999_ms", "bg_avg_ms",
           "timeouts_per_1k", "pause_per_1k", "incomplete"]

TABLES = {"": ("Figure 6: FCT for RoCE transports (40% load, 5% fg, K=200kB)", COLUMNS)}

TRANSPORTS = ("hpcc", "irn", "dcqcn-sack", "dcqcn")


def run(scale="small", seeds: Sequence[int] = (1,), transports=TRANSPORTS) -> List[Dict]:
    scale = resolve_scale(scale)
    grid = [
        (dict(transport=transport, scheme=name), config)
        for transport in transports
        for name, config in roce_schemes(ScenarioConfig(transport=transport, scale=scale)).items()
    ]
    rows = run_grid([config for _labels, config in grid], seeds)
    for row, (labels, _config) in zip(rows, grid):
        row.update(labels)
    return rows


CLAIMS = {
    "tlt-no-more-timeouts": (
        "TLT removes the RoCE transports' timeouts without PFC",
        lambda rows: at_most({t: (pick(rows, transport=t, scheme="tlt")["timeouts_per_1k"],
                                  pick(rows, transport=t, scheme="baseline")["timeouts_per_1k"])
                              for t in TRANSPORTS})),
}
