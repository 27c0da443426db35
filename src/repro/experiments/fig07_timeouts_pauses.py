"""Figure 7 — timeouts per 1k flows, PAUSE frames per 1k flows and the
average fraction of time links are paused.

The paper's takeaways: TLT virtually eliminates timeouts (where the
200 µs timer multiplies them and TLP leaves half); and under PFC, TLT's
proactive red drops cut both the number of PAUSE frames and the total
paused time.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Sequence

from repro.experiments.common import all_zero, at_most, pick, resolve_scale, run_grid
from repro.experiments.scenarios import ScenarioConfig
from repro.experiments.schemes import RTO_200US

COLUMNS = ["transport", "scheme", "timeouts_per_1k", "pause_per_1k",
           "pause_fraction", "important_loss_rate"]

TABLES = {"": ("Figure 7: timeouts, PAUSE frames and paused time per scheme", COLUMNS)}


def run(scale="small", seeds: Sequence[int] = (1,), transports=("dctcp", "tcp")) -> List[Dict]:
    scale = resolve_scale(scale)
    grid = []
    for transport in transports:
        base = ScenarioConfig(transport=transport, scale=scale)
        variants = {
            "baseline": base,  # timeout panel (a)
            "tlp": replace(base, recovery="tlp"),
            "rto200us": replace(base, recovery=RTO_200US),
            "tlt": replace(base, tlt=True),
            "pfc": replace(base, pfc=True),  # pause panels (b), (c)
            "tlt+pfc": replace(base, tlt=True, pfc=True),
        }
        grid += [(dict(transport=transport, scheme=name), config)
                 for name, config in variants.items()]
    rows = run_grid([config for _labels, config in grid], seeds)
    for row, (labels, _config) in zip(rows, grid):
        row.update(labels)
    return rows


CLAIMS = {
    "tlt-no-timeouts": (
        "TLT virtually eliminates timeouts",
        lambda rows: all_zero({t: pick(rows, transport=t, scheme="tlt")["timeouts_per_1k"]
                               for t in ("dctcp", "tcp")})),
    "tlt-no-more-pauses": (
        "Under PFC, TLT cuts PAUSE frames (-27.7 % for DCTCP)",
        lambda rows: at_most({t: (pick(rows, transport=t, scheme="tlt+pfc")["pause_per_1k"],
                                  pick(rows, transport=t, scheme="pfc")["pause_per_1k"])
                              for t in ("dctcp", "tcp")})),
}
