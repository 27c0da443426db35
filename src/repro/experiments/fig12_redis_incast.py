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
from repro.experiments.common import all_zero, pick, run_grid
from repro.experiments.scenarios import ScenarioResult, endpoint_settings
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


def burst_metrics(result: ScenarioResult) -> Dict:
    """Reducer: the response times of one point's requests."""
    summary = result.traffic.tier.result.summary()
    return {
        "p99_ms": summary["p99"] / 1e6,
        "max_ms": summary["max"] / 1e6,
        "timeouts": float(result.stats.timeouts),
        "answered": summary["count"],
    }


def run(scale="small", seeds: Sequence[int] = (1,),
        request_counts: Sequence[int] = DEFAULT_REQUEST_COUNTS,
        bursts: int = 3, transports=("tcp", "dctcp")) -> List[Dict]:
    labels = [(transport, tlt, requests) for transport in transports
              for tlt in (False, True) for requests in request_counts]
    rows = run_grid([(paper_testbed(transport=transport, tlt=tlt),
                      RequestBursts(requests, bursts)) for transport, tlt, requests in labels],
                    seeds, burst_metrics)
    for row, (transport, tlt, requests) in zip(rows, labels):
        row.update(transport=transport, tlt=tlt, requests=requests)
    return rows


CLAIMS = {
    "every-point-answered": (
        "Requests are answered at every fan-in",
        lambda rows: (all(r["answered"] > 0 for r in rows), min(r["answered"] for r in rows))),
    "tlt-no-timeouts-at-180": (
        "(DC)TCP+TLT stays timeout-free at the highest fan-in (-91.7 % max response time)",
        lambda rows: all_zero({t: pick(rows, transport=t, tlt=True, requests=180)["timeouts"]
                               for t in ("tcp", "dctcp")})),
}
