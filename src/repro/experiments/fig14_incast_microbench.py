"""Figure 14 — testbed incast microbenchmark.

A client requests 32 kB from each of 8 servers, with the total number
of concurrent requests swept upward. Baselines (4 ms and 200 µs
RTO_min) hit timeout-dominated tails once the burst overruns the port;
TLT sustains at least 4x the fan-in with no timeout. Panel (c) is the
FCT CDF at 100 concurrent flows.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.apps.kvstore import KvClient, KvServer
from repro.apps.rpc import RpcNode
from repro.experiments.common import print_table
from repro.experiments.scenarios import attach_auditor, finish_run, run_control
from repro.experiments.testbed import build_testbed, maybe_tlt, testbed_transport_config
from repro.sim.units import MICROS, MILLIS
from repro.stats.percentile import percentile, percentiles

DEFAULT_FLOW_COUNTS = (8, 16, 40, 80, 100, 120, 160)
NUM_SERVERS = 8
RESPONSE_SIZE = 32_000

COLUMNS = ["transport", "scheme", "flows", "p99_ms", "max_ms", "timeouts"]
CDF_POINTS = (50, 90, 96, 99, 100)


def run_one(transport: str, scheme: str, flows: int, seed: int = 1,
             runs: int = 3) -> Dict:
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

    times = [t for c in clients for t in c.response_times]
    return {
        "transport": transport,
        "scheme": scheme,
        "flows": flows,
        "p99_ms": percentile(times, 99) / 1e6,
        "max_ms": max(times) / 1e6 if times else 0.0,
        "timeouts": float(net.stats.timeouts),
        "answered": len(times),
        "_times": times,
    }


def run(scale="small", flow_counts: Sequence[int] = DEFAULT_FLOW_COUNTS,
        transports=("tcp", "dctcp"), runs: int = 3) -> List[Dict]:
    rows: List[Dict] = []
    for transport in transports:
        for scheme in ("rto4ms", "rto200us", "tlt"):
            for flows in flow_counts:
                row = run_one(transport, scheme, flows, runs=runs)
                row.pop("_times")
                rows.append(row)
    return rows


def run_cdf(scale="small", flows: int = 100, transport: str = "tcp") -> List[Dict]:
    """Panel (c): FCT CDF at a fixed fan-in."""
    rows = []
    for scheme in ("rto4ms", "rto200us", "tlt"):
        result = run_one(transport, scheme, flows)
        times = [t / 1e6 for t in result["_times"]]
        row = {"scheme": scheme}
        for p, value in zip(CDF_POINTS, percentiles(times, CDF_POINTS)):
            row[f"p{p}_ms"] = value
        rows.append(row)
    return rows


def main(scale="small") -> None:
    print_table(run(scale), COLUMNS, "Figure 14: incast microbenchmark (32 kB responses)")
    print_table(run_cdf(scale), ["scheme"] + [f"p{p}_ms" for p in CDF_POINTS],
                "Figure 14c: FCT CDF at 100 flows (TCP)")


if __name__ == "__main__":
    main()
