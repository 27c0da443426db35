"""Figure 12 — in-memory cache benchmark (HTTP → web servers → Redis).

One client bursts up to 180 requests over 8 web servers; each request
triggers a 32 kB SET toward one cache node (fan-in incast). The paper:
(DC)TCP response times explode (with huge variance) past a modest
fan-in, while (DC)TCP+TLT stays steady — up to ~91.7% lower maximum
response time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.apps.webtier import WebTier
from repro.experiments.common import average
from repro.experiments.scenarios import endpoint_settings, run_scenario
from repro.experiments.testbed import paper_testbed
from repro.sim.units import MILLIS

DEFAULT_REQUEST_COUNTS = (8, 24, 60, 120, 180)

COLUMNS = ["transport", "tlt", "requests", "p99_ms", "max_ms", "timeouts"]

TABLES = {"": ("Figure 12: cache (Redis) incast response times", COLUMNS)}


@dataclass
class RequestBursts:
    """Workload: ``bursts`` bursts of ``requests`` HTTP requests, 100 ms
    apart, from host 0 over web servers 1..8 into cache node 9 (the
    paper averages 12 runs). ``tier`` is set when it runs."""

    requests: int
    bursts: int

    def __call__(self, config, net, create):
        self.tier = WebTier(net, *endpoint_settings(config),
                            num_web_servers=8, value_size=32_000)
        for burst in range(self.bursts):
            net.engine.schedule_at(burst * 100 * MILLIS, self.tier.issue_requests,
                                   self.requests)
        return (self.bursts - 1) * 100 * MILLIS, 0


def run_one(transport: str, tlt: bool, requests: int, bursts: int = 3, seed: int = 1) -> Dict:
    workload = RequestBursts(requests, bursts)
    result = run_scenario(paper_testbed(transport=transport, tlt=tlt, seed=seed), workload)
    summary = workload.tier.result.summary()
    return {
        "p99_ms": summary["p99"] / 1e6,
        "max_ms": summary["max"] / 1e6,
        "timeouts": float(result.stats.timeouts),
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
