"""Figure 14 — testbed incast microbenchmark.

A client requests 32 kB from each of 8 servers, with the total number
of concurrent requests swept upward. Baselines (4 ms and 200 µs
RTO_min) hit timeout-dominated tails once the burst overruns the port;
TLT sustains at least 4x the fan-in with no timeout. Panel (c) is the
FCT CDF at 100 concurrent flows.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.apps.kvstore import KvClient, KvServer
from repro.apps.rpc import RpcNode
from repro.experiments.common import average
from repro.experiments.scenarios import attach_auditor, finish_run, run_control
from repro.experiments.testbed import build_testbed, maybe_tlt, testbed_transport_config
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


def response_times(transport: str, scheme: str, flows: int, seed: int,
                   runs: int) -> Tuple[List[int], int]:
    """Drive one point; returns every response time (ns) and the RTO count."""
    tlt = scheme == "tlt"
    rto_min = 200 * MICROS if scheme == "rto200us" else 4 * MILLIS
    net = build_testbed(num_hosts=NUM_SERVERS + 1, transport=transport, tlt=tlt, seed=seed)
    control = run_control()
    auditor = attach_auditor(net, control)
    tconfig = testbed_transport_config(rto_min_ns=rto_min)
    tlt_cfg = maybe_tlt(tlt)

    client_node = RpcNode(net, 0, transport, tconfig, tlt_cfg)
    servers = [
        KvServer(RpcNode(net, i + 1, transport, tconfig, tlt_cfg))
        for i in range(NUM_SERVERS)
    ]
    for server in servers:
        server.store["blob"] = RESPONSE_SIZE  # preload the value
    clients = [KvClient(client_node, server) for server in servers]

    def burst() -> None:
        for i in range(flows):
            clients[i % NUM_SERVERS].get("blob")

    for r in range(runs):
        net.engine.schedule_at(r * 100 * MILLIS, burst)
    net.engine.run(until=(runs + 1) * 100 * MILLIS)
    finish_run(net, control, auditor)

    return [t for c in clients for t in c.response_times], net.stats.timeouts


def run_one(transport: str, scheme: str, flows: int, seed: int = 1,
            runs: int = 3) -> Dict:
    """One sweep point's metrics."""
    times, timeouts = response_times(transport, scheme, flows, seed, runs)
    return {
        "p99_ms": percentile(times, 99) / 1e6,
        "max_ms": max(times) / 1e6 if times else 0.0,
        "timeouts": float(timeouts),
        "answered": len(times),
    }


def cdf_one(transport: str, scheme: str, flows: int, seed: int = 1) -> Dict:
    """One CDF point: percentiles of the response times (ms)."""
    times, _timeouts = response_times(transport, scheme, flows, seed, runs=3)
    return dict(zip(CDF_COLUMNS, percentiles([t / 1e6 for t in times], CDF_POINTS)))


def run(scale="small", seeds: Sequence[int] = (1,),
        flow_counts: Sequence[int] = DEFAULT_FLOW_COUNTS,
        transports=("tcp", "dctcp"), runs: int = 3,
        cdf_flows: int = 100, cdf_transport: str = "tcp") -> Dict[str, List[Dict]]:
    """``sweep``: panels (a)/(b), tail response time by fan-in; ``cdf``:
    panel (c), the FCT CDF at one fan-in."""
    sweep: List[Dict] = []
    for transport in transports:
        for scheme in SCHEMES:
            for flows in flow_counts:
                row = average([run_one(transport, scheme, flows, seed, runs)
                               for seed in seeds])
                row.update(transport=transport, scheme=scheme, flows=flows)
                sweep.append(row)
    cdf: List[Dict] = []
    for scheme in SCHEMES:
        row = average([cdf_one(cdf_transport, scheme, cdf_flows, seed) for seed in seeds])
        row["scheme"] = scheme
        cdf.append(row)
    return {"sweep": sweep, "cdf": cdf}
