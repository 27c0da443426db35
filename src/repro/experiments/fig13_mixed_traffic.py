"""Figure 13 — cache traffic mixed with a throughput-sensitive flow.

An 8 MB background flow shares the cache node's link with 152
foreground 32 kB SETs from 8 servers. The paper: DCTCP's foreground
99%-ile reaches ~11 ms; DCTCP+TLT achieves ~3.4 ms (71% better) while
costing the background flow only ~5.6% goodput.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.apps.kvstore import KvClient, KvServer
from repro.apps.rpc import RpcNode
from repro.experiments.common import at_most, run_grid, vs
from repro.experiments.scenarios import ScenarioResult, endpoint_settings
from repro.experiments.testbed import paper_testbed
from repro.stats.percentile import percentile
from repro.transport.base import FlowSpec

COLUMNS = ["scheme", "fg_p99_ms", "bg_goodput_gbps", "timeouts"]

TABLES = {"": ("Figure 13: mixed cache + background traffic (DCTCP)", COLUMNS)}

NUM_SERVERS = 8
NUM_SETS = 152
VALUE_SIZE = 32_000
BG_SIZE = 8_000_000
#: The foreground burst starts once the bg flow is in steady state.
BURST_NS = 200_000


@dataclass
class CacheWithBackground:
    """Workload: host 0 sends the bg flow to cache node 9 while web
    servers 1..8 SET into it. ``clients`` and ``bg_end`` (when the bg
    flow completed) are set when it runs."""

    def __call__(self, config, net, create):
        self.bg_end = None

        def bg_completed(record) -> None:
            self.bg_end = net.engine.now

        create(FlowSpec(flow_id=net.new_flow_id(), src=0, dst=9, size=BG_SIZE,
                        start_ns=0, group="bg", on_complete_rx=bg_completed))
        settings = endpoint_settings(config)
        cache = KvServer(RpcNode(net, 9, *settings))
        self.clients = [KvClient(RpcNode(net, i + 1, *settings), cache)
                        for i in range(NUM_SERVERS)]

        def burst() -> None:
            for i in range(NUM_SETS):
                self.clients[i % NUM_SERVERS].set(f"key-{i}", VALUE_SIZE)

        net.engine.schedule_at(BURST_NS, burst)
        return BURST_NS, 1


def mixed_metrics(result: ScenarioResult) -> Dict:
    """Reducer: the foreground SETs' tail and the bg flow's goodput."""
    workload = result.traffic
    fg_times = [t for c in workload.clients for t in c.response_times]
    bg_end = workload.bg_end or result.duration_ns
    return {
        "fg_p99_ms": percentile(fg_times, 99) / 1e6,
        "bg_goodput_gbps": BG_SIZE * 8 / max(bg_end, 1) if bg_end else 0.0,
        "timeouts": float(result.stats.timeouts),
        "answered": len(fg_times),
    }


def run(scale="small", seeds: Sequence[int] = (1,), transport: str = "dctcp") -> List[Dict]:
    rows = run_grid([(paper_testbed(transport=transport, tlt=tlt), CacheWithBackground())
                     for tlt in (False, True)], seeds, mixed_metrics)
    for row, scheme in zip(rows, (transport, f"{transport}+tlt")):
        row["scheme"] = scheme
    return rows


def _all_sets_answered(rows: List[Dict]):
    base, tlt = rows
    return (base["answered"] == tlt["answered"] == NUM_SETS,
            f"answered {vs(tlt['answered'], base['answered'])}")


def _bg_goodput_over_half(rows: List[Dict]):
    base, tlt = (row["bg_goodput_gbps"] for row in rows)
    return tlt > 0.5 * base, f"bg_goodput_gbps {vs(tlt, base)}"


CLAIMS = {
    "all-sets-answered": ("All 152 foreground SETs are answered", _all_sets_answered),
    "tlt-fg-tail-no-higher": (
        "TLT cuts the foreground 99%-ile (11.3 -> 3.39 ms, -71.2 %)",
        lambda rows: at_most({"fg_p99_ms": (rows[1]["fg_p99_ms"], rows[0]["fg_p99_ms"])})),
    "bg-goodput-over-half": ("TLT costs the background flow little goodput (-5.58 %)",
                             _bg_goodput_over_half),
}
