"""Figure 14 — testbed incast microbenchmark.

A client requests 32 kB from each of 8 servers, with the total number
of concurrent requests swept upward. Baselines (4 ms and 200 µs
RTO_min) hit timeout-dominated tails once the burst overruns the port;
TLT sustains at least 4x the fan-in with no timeout. Panel (c) is the
FCT CDF at 100 concurrent flows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.apps.kvstore import KvClient, KvServer
from repro.apps.rpc import RpcNode
from repro.experiments.common import all_zero, at_most, pick, run_grid, vs
from repro.experiments.scenarios import ScenarioConfig, ScenarioResult, endpoint_settings
from repro.experiments.schemes import RTO_200US
from repro.experiments.testbed import paper_testbed
from repro.sim.units import MILLIS
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


def scheme_config(transport: str, scheme: str) -> ScenarioConfig:
    """The testbed config of one ``transport`` × ``scheme`` point."""
    return paper_testbed(NUM_SERVERS + 1, transport=transport, tlt=scheme == "tlt",
                         recovery=RTO_200US if scheme == "rto200us" else None)


def incast_metrics(result: ScenarioResult) -> Dict:
    """Reducer: one point's metrics for both panels, panel (c)'s as ``cdf_*``."""
    times = [t for c in result.traffic.clients for t in c.response_times]
    cdf = percentiles([t / 1e6 for t in times], CDF_POINTS)
    return {
        "p99_ms": percentile(times, 99) / 1e6,
        "max_ms": max(times) / 1e6 if times else 0.0,
        "timeouts": float(result.stats.timeouts),
        "answered": len(times),
        **{f"cdf_{column}": value for column, value in zip(CDF_COLUMNS, cdf)},
    }


def run(scale="small", seeds: Sequence[int] = (1,),
        flow_counts: Sequence[int] = DEFAULT_FLOW_COUNTS,
        transports=("tcp", "dctcp"), runs: int = 3,
        cdf_flows: int = 100, cdf_transport: str = "tcp") -> Dict[str, List[Dict]]:
    """``sweep``: panels (a)/(b), tail response time by fan-in; ``cdf``:
    panel (c), the FCT CDF at one fan-in over 3 bursts. Where the sweep
    has that point, the grid runs it once for both panels."""
    labels = [(transport, scheme, flows) for transport in transports
              for scheme in SCHEMES for flows in flow_counts]
    rows = run_grid([(scheme_config(transport, scheme), IncastGets(flows, runs))
                     for transport, scheme, flows in labels]
                    + [(scheme_config(cdf_transport, scheme), IncastGets(cdf_flows, 3))
                       for scheme in SCHEMES], seeds, incast_metrics)
    sweep = [{**{key: value for key, value in row.items() if not key.startswith("cdf_")},
              "transport": transport, "scheme": scheme, "flows": flows}
             for row, (transport, scheme, flows) in zip(rows, labels)]
    cdf = [{**{key[4:]: value for key, value in row.items() if key.startswith("cdf_")},
            "scheme": scheme} for row, scheme in zip(rows[len(labels):], SCHEMES)]
    return {"sweep": sweep, "cdf": cdf}


def _cdf_tail(result: Dict[str, List[Dict]]):
    tlt = pick(result["cdf"], scheme="tlt")["p99_ms"]
    base = pick(result["cdf"], scheme="rto4ms")["p99_ms"]
    if base > 2.0:  # baseline tail is timeout-dominated
        return tlt < base, f"p99_ms {vs(tlt, base)}"
    # Light congestion: TLT must stay in the same ballpark.
    return at_most({"p99_ms": (tlt, base)}, factor=1.5)


CLAIMS = {
    "tlt-no-timeouts": (
        "TLT sustains at least 4x the fan-in with no timeout",
        lambda result: all_zero({f"{r['transport']}/{r['flows']}": r["timeouts"]
                                 for r in result["sweep"]
                                 if r["transport"] in ("tcp", "dctcp") and r["scheme"] == "tlt"})),
    "cdf-tlt-tail": ("Panel (c): TLT cuts the timeout-dominated FCT tail of the 4 ms "
                     "baseline (within 1.5x of it when the baseline tail is under 2 ms)",
                     _cdf_tail),
}
