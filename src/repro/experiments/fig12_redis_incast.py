"""Figure 12 — in-memory cache benchmark (HTTP → web servers → Redis).

One client bursts up to 180 requests over 8 web servers; each request
triggers a 32 kB SET toward one cache node (fan-in incast). The paper:
(DC)TCP response times explode (with huge variance) past a modest
fan-in, while (DC)TCP+TLT stays steady — up to ~91.7% lower maximum
response time.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.apps.webtier import WebTier
from repro.experiments.common import average
from repro.experiments.scenarios import attach_auditor, finish_run, run_control
from repro.experiments.testbed import build_testbed, maybe_tlt, testbed_transport_config
from repro.sim.units import MILLIS

DEFAULT_REQUEST_COUNTS = (8, 24, 60, 120, 180)

COLUMNS = ["transport", "tlt", "requests", "p99_ms", "max_ms", "timeouts"]

TABLES = {"": ("Figure 12: cache (Redis) incast response times", COLUMNS)}


def run_one(transport: str, tlt: bool, requests: int, bursts: int = 3, seed: int = 1) -> Dict:
    net = build_testbed(num_hosts=10, transport=transport, tlt=tlt, seed=seed)
    control = run_control()
    auditor = attach_auditor(net, control)
    tier = WebTier(
        net, transport, testbed_transport_config(), maybe_tlt(tlt),
        num_web_servers=8, value_size=32_000,
    )
    # Several widely spaced bursts (the paper averages 12 runs).
    for burst in range(bursts):
        net.engine.schedule_at(burst * 100 * MILLIS, tier.issue_requests, requests)
    net.engine.run(until=(bursts + 1) * 100 * MILLIS)
    finish_run(net, control, auditor)
    summary = tier.result.summary()
    return {
        "p99_ms": summary["p99"] / 1e6,
        "max_ms": summary["max"] / 1e6,
        "timeouts": float(net.stats.timeouts),
        "answered": summary["count"],
    }


def run(scale="small", seeds: Sequence[int] = (1,),
        request_counts: Sequence[int] = DEFAULT_REQUEST_COUNTS,
        bursts: int = 3, transports=("tcp", "dctcp")) -> List[Dict]:
    rows: List[Dict] = []
    for transport in transports:
        for tlt in (False, True):
            for requests in request_counts:
                row = average([run_one(transport, tlt, requests, bursts, seed)
                               for seed in seeds])
                row.update(transport=transport, tlt=tlt, requests=requests)
                rows.append(row)
    return rows
