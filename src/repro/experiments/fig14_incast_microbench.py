"""Figure 14 — testbed incast microbenchmark.

A client requests 32 kB from each of 8 servers, with the total number
of concurrent requests swept upward. Baselines (4 ms and 200 µs
RTO_min) hit timeout-dominated tails once the burst overruns the port;
TLT sustains at least 4x the fan-in with no timeout. Panel (c) is the
FCT CDF at 100 concurrent flows.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.apps.kvstore import KvClient, KvServer
from repro.apps.rpc import RpcNode
from repro.experiments.common import average
from repro.experiments.scenarios import endpoint_settings, run_scenario
from repro.experiments.testbed import paper_testbed
from repro.sim.units import MICROS, MILLIS
from repro.stats.percentile import percentile, percentiles

DEFAULT_FLOW_COUNTS = (8, 16, 40, 80, 100, 120, 160)
NUM_SERVERS = 8
RESPONSE_SIZE = 32_000

SCHEMES = ("rto4ms", "rto200us", "tlt")
COLUMNS = ["transport", "scheme", "flows", "p99_ms", "max_ms", "timeouts"]
CDF_POINTS = (50, 90, 96, 99, 100)
CDF_COLUMNS = [f"p{p}_ms" for p in CDF_POINTS]

TABLES = {
    "sweep": ("Figure 14: incast microbenchmark (32 kB responses)", COLUMNS),
    "cdf": ("Figure 14c: FCT CDF at 100 flows (TCP)", ["scheme"] + CDF_COLUMNS),
}


@dataclass
class IncastGets:
    """Workload: ``runs`` bursts, 100 ms apart, of ``flows`` concurrent
    32 kB GETs from client host 0 over servers 1..8. ``clients`` is set
    when it runs."""

    flows: int
    runs: int

    def __call__(self, config, net, create):
        settings = endpoint_settings(config)
        client_node = RpcNode(net, 0, *settings)
        servers = [KvServer(RpcNode(net, i + 1, *settings)) for i in range(NUM_SERVERS)]
        for server in servers:
            server.store["blob"] = RESPONSE_SIZE  # preload the value
        self.clients = [KvClient(client_node, server) for server in servers]
        for r in range(self.runs):
            net.engine.schedule_at(r * 100 * MILLIS, self.burst)
        return (self.runs - 1) * 100 * MILLIS, 0

    def burst(self) -> None:
        for i in range(self.flows):
            self.clients[i % NUM_SERVERS].get("blob")


def response_times(transport: str, scheme: str, flows: int, seed: int,
                   runs: int) -> Tuple[List[int], int]:
    """Drive one point; returns every response time (ns) and the RTO count."""
    rto_min = 200 * MICROS if scheme == "rto200us" else 4 * MILLIS
    config = paper_testbed(NUM_SERVERS + 1, transport=transport, tlt=scheme == "tlt",
                           seed=seed, rto_min_ns=rto_min)
    workload = IncastGets(flows, runs)
    result = run_scenario(config, workload)
    return [t for c in workload.clients for t in c.response_times], result.stats.timeouts


def sweep_row(times: List[int], timeouts: int) -> Dict:
    """One sweep point's metrics from its :func:`response_times`."""
    return {
        "p99_ms": percentile(times, 99) / 1e6,
        "max_ms": max(times) / 1e6 if times else 0.0,
        "timeouts": float(timeouts),
        "answered": len(times),
    }


def _cdf_row(times: List[int]) -> Dict:
    return dict(zip(CDF_COLUMNS, percentiles([t / 1e6 for t in times], CDF_POINTS)))


def run(scale="small", seeds: Sequence[int] = (1,),
        flow_counts: Sequence[int] = DEFAULT_FLOW_COUNTS,
        transports=("tcp", "dctcp"), runs: int = 3,
        cdf_flows: int = 100, cdf_transport: str = "tcp") -> Dict[str, List[Dict]]:
    """``sweep``: panels (a)/(b), tail response time by fan-in; ``cdf``:
    panel (c), the FCT CDF at one fan-in over 3 bursts, read off the
    sweep's point when it ran that one (simulated otherwise)."""
    point = functools.lru_cache(maxsize=None)(response_times)
    sweep: List[Dict] = []
    for transport in transports:
        for scheme in SCHEMES:
            for flows in flow_counts:
                row = average([sweep_row(*point(transport, scheme, flows, seed, runs))
                               for seed in seeds])
                row.update(transport=transport, scheme=scheme, flows=flows)
                sweep.append(row)
    cdf: List[Dict] = []
    for scheme in SCHEMES:
        row = average([_cdf_row(point(cdf_transport, scheme, cdf_flows, seed, 3)[0])
                       for seed in seeds])
        row["scheme"] = scheme
        cdf.append(row)
    return {"sweep": sweep, "cdf": cdf}
