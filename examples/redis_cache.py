#!/usr/bin/env python
"""The paper's application scenario (§7.3): a web tier over a cache.

One HTTP client fans requests across 8 web servers; every request makes
its web server push a 32 kB SET into one cache (Redis-like) node. The
fan-in toward the cache is an incast; without TLT it causes timeouts
and multi-millisecond response tails. Run:

    python examples/redis_cache.py
"""

from repro.experiments.fig12_redis_incast import RequestBursts
from repro.experiments.scenarios import run_scenario
from repro.experiments.testbed import paper_testbed


def run_tier(transport: str, tlt: bool, requests: int) -> None:
    # The testbed is a ScenarioConfig; the web tier is the run's workload.
    workload = RequestBursts(requests, bursts=1)
    result = run_scenario(paper_testbed(transport=transport, tlt=tlt), workload)
    summary = workload.tier.result.summary()
    label = f"{transport}+tlt" if tlt else transport
    print(
        f"{label:10s} {requests:4d} requests: "
        f"p99 = {summary['p99'] / 1e6:7.3f} ms  max = {summary['max'] / 1e6:7.3f} ms  "
        f"timeouts = {result.stats.timeouts}"
    )


def main() -> None:
    print("Client -> 8 web servers -> cache node (32 kB SET per request)\n")
    for requests in (24, 120, 180):
        for tlt in (False, True):
            run_tier("dctcp", tlt, requests)
        print()


if __name__ == "__main__":
    main()
