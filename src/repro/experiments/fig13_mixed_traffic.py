"""Figure 13 — cache traffic mixed with a throughput-sensitive flow.

An 8 MB background flow shares the cache node's link with 152
foreground 32 kB SETs from 8 servers. The paper: DCTCP's foreground
99%-ile reaches ~11 ms; DCTCP+TLT achieves ~3.4 ms (71% better) while
costing the background flow only ~5.6% goodput.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.apps.kvstore import KvClient, KvServer
from repro.apps.rpc import RpcNode
from repro.experiments.common import average
from repro.experiments.scenarios import attach_auditor, finish_run, run_control
from repro.experiments.testbed import build_testbed, maybe_tlt, testbed_transport_config
from repro.stats.percentile import percentile
from repro.transport.base import FlowSpec
from repro.transport.registry import create_flow

COLUMNS = ["scheme", "fg_p99_ms", "bg_goodput_gbps", "timeouts"]

TABLES = {"": ("Figure 13: mixed cache + background traffic (DCTCP)", COLUMNS)}

NUM_SERVERS = 8
NUM_SETS = 152
VALUE_SIZE = 32_000
BG_SIZE = 8_000_000


def run_one(transport: str = "dctcp", tlt: bool = False, seed: int = 1,
            admission=None) -> Dict:
    # Hosts: 0 = bg sender, 1..8 = web servers, 9 = cache node.
    net = build_testbed(num_hosts=10, transport=transport, tlt=tlt, seed=seed,
                        admission=admission)
    control = run_control()
    auditor = attach_auditor(net, control)
    tconfig = testbed_transport_config()
    tlt_cfg = maybe_tlt(tlt)

    bg_done = {}

    def bg_completed(record):
        bg_done["end"] = net.engine.now

    bg_spec = FlowSpec(
        flow_id=net.new_flow_id(), src=0, dst=9, size=BG_SIZE,
        start_ns=0, group="bg", on_complete_rx=bg_completed,
    )
    create_flow(transport, net, bg_spec, tconfig, tlt_cfg)

    cache = KvServer(RpcNode(net, 9, transport, tconfig, tlt_cfg))
    clients = [
        KvClient(RpcNode(net, i + 1, transport, tconfig, tlt_cfg), cache)
        for i in range(NUM_SERVERS)
    ]
    # Start the foreground burst once the bg flow is in steady state.
    start_ns = 200_000

    def burst() -> None:
        for i in range(NUM_SETS):
            clients[i % NUM_SERVERS].set(f"key-{i}", VALUE_SIZE)

    net.engine.schedule_at(start_ns, burst)
    net.engine.run(until=2_000_000_000)
    finish_run(net, control, auditor)

    fg_times = [t for c in clients for t in c.response_times]
    bg_end = bg_done.get("end", net.engine.now)
    return {
        "fg_p99_ms": percentile(fg_times, 99) / 1e6,
        "bg_goodput_gbps": BG_SIZE * 8 / max(bg_end, 1) if bg_end else 0.0,
        "timeouts": float(net.stats.timeouts),
        "answered": len(fg_times),
    }


def run(scale="small", seeds: Sequence[int] = (1,), transport: str = "dctcp") -> List[Dict]:
    rows: List[Dict] = []
    for tlt in (False, True):
        row = average([run_one(transport, tlt, seed) for seed in seeds])
        row["scheme"] = f"{transport}+tlt" if tlt else transport
        rows.append(row)
    return rows
