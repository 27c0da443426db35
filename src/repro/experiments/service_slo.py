"""Extension — service-level SLOs under open-loop load (the paper's
§2 motivation, measured end to end).

The paper's figures score transports by flow completion time; a
datacenter operator scores them by *response-time SLO at offered
load*. This experiment closes that gap with the service emulator
(:mod:`repro.service`): a load-balancer front fans every request over
a cache tier (fanout 4 — each request is a mini-incast into the LB
host's downlink) and a storage tier, driven by an **open-loop**
Poisson arrival process, so offered load keeps arriving whether or not
earlier requests finished — the regime where one RTO on the critical
path blows a millisecond SLO.

The ladder sweeps arrival rate ×1/2/4/8 over ``BASE_RATE_RPS`` for the
baseline transport and for the same transport with TLT, then reports
each mode's **SLO capacity**: the highest rung where p99 response time
meets the target *and* RTO fires stay within the timeout budget. The
headline claim, ``slo-capacity-2x``: TLT's SLO capacity is at least
2× the baseline's, and TLT still holds the SLO at the
rung where the baseline has already collapsed into timeout-dominated
tails (hundreds of RTO fires per 1k flows vs zero, see the ladder
rows).

SLO target: 5 ms p99 — RTO-min (4 ms) plus queueing headroom, so a
request whose critical path eats even one RTO cannot meet it.

Scale note: rungs are tuned for the *tiny* fabric CI runs (6 hosts,
40 Gbps, one LB downlink as the contended port); paper-scale runs
(``--scale small`` upward, more requests) keep the same ×2 spacing —
capacities shift with host count, the TLT/baseline ratio is the claim.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.experiments.common import pick, resolve_scale, run_grid
from repro.experiments.scenarios import ScenarioConfig, ScenarioResult

#: Ladder rung 1 (requests/second); rungs are ×1/2/4/8 this.
BASE_RATE_RPS = 20_000.0
RATE_MULTIPLIERS = (1, 2, 4, 8)

#: Open-loop requests per run (per rung, per seed).
REQUESTS = 400

#: p99 response-time target: RTO-min (4 ms) + 1 ms queueing headroom.
SLO_P99_MS = 5.0

COLUMNS = [
    "rate_krps", "p50_ms", "p99_ms", "p999_ms", "timeouts_per_1k",
    "req_per_s", "slo_met",
]
SUMMARY_COLUMNS = ["mode", "slo_capacity_krps", "break_krps", "capacity_ratio"]

TABLES = {
    "base": (f"Service SLO ladder: dctcp baseline (p99 target {SLO_P99_MS} ms)", COLUMNS),
    "tlt": (f"Service SLO ladder: dctcp+TLT (p99 target {SLO_P99_MS} ms)", COLUMNS),
    "summary": ("SLO capacity: highest arrival rate holding the p99 target",
                SUMMARY_COLUMNS),
}


def service_spec(rate_rps: float, hosts: int) -> Dict:
    """The tier graph for one rung: LB → {cache ×4 fanout, storage}."""
    backends = max(2, hosts - 1)  # all non-LB hosts serve both tiers
    return {
        "requests": REQUESTS,
        "rate_rps": rate_rps,
        "process": "poisson",
        "lb_hosts": 1,
        "tiers": [
            {"name": "cache", "servers": backends, "fanout": min(4, backends),
             "workload": "cache_follower", "max_bytes": 64_000,
             "service_ns": 2_000},
            {"name": "storage", "servers": backends, "fanout": 1,
             "workload": "web_server", "max_bytes": 8_000,
             "service_ns": 10_000},
        ],
        "slo_p99_ms": SLO_P99_MS,
        "timeout_budget_per_1k": 1.0,
    }


def service_row(result: ScenarioResult) -> Dict[str, float]:
    """Metrics reducer for pool workers (module-level: importable by
    qualname, so rows cache and fan out across processes)."""
    emulator = result.service
    summary = emulator.request_sketch.summarize()
    stats = result.stats
    duration_s = result.duration_ns / 1e9 if result.duration_ns else 1.0
    p99_ms = summary["p99"] / 1e6
    timeouts_per_1k = stats.timeouts_per_1k_flows()
    spec = emulator.spec
    met = (p99_ms <= spec.slo_p99_ms
           and timeouts_per_1k <= spec.timeout_budget_per_1k)
    return {
        "p50_ms": summary["p50"] / 1e6,
        "p99_ms": p99_ms,
        "p999_ms": summary["p999"] / 1e6,
        "timeouts_per_1k": timeouts_per_1k,
        "req_per_s": emulator.completed / duration_s,
        "completed": float(emulator.completed),
        "hedges": float(emulator.hedges),
        "slo_met": float(met),
    }


def _config(scale, rate_rps: float, *, tlt: bool) -> ScenarioConfig:
    return ScenarioConfig(
        transport="dctcp", tlt=tlt, scale=scale,
        service=service_spec(rate_rps, scale.num_hosts),
        enable_background=False, enable_incast=False,
    )


def _ladder(scale, seeds: Sequence[int], *, tlt: bool) -> List[Dict]:
    rates = [BASE_RATE_RPS * mult for mult in RATE_MULTIPLIERS]
    rows = run_grid([_config(scale, rate, tlt=tlt) for rate in rates], seeds, service_row)
    for row, rate in zip(rows, rates):
        # A rung only counts as held when *every* seed met the SLO.
        row["slo_met"] = float(row["slo_met"] >= 1.0)
        row["rate_krps"] = rate / 1e3
    return rows


def _slo_capacity_krps(rows: List[Dict]) -> float:
    """Highest contiguous rung (from the bottom) holding the SLO."""
    capacity = 0.0
    for row in rows:
        if not row["slo_met"]:
            break
        capacity = row["rate_krps"]
    return capacity


def _break_krps(rows: List[Dict]) -> float:
    """First rung where the SLO is violated (0 = never broke)."""
    for row in rows:
        if not row["slo_met"]:
            return row["rate_krps"]
    return 0.0


def run(scale="tiny", seeds: Sequence[int] = (1, 2, 3)) -> Dict[str, List[Dict]]:
    scale = resolve_scale(scale)
    base_rows = _ladder(scale, seeds, tlt=False)
    tlt_rows = _ladder(scale, seeds, tlt=True)

    base_cap = _slo_capacity_krps(base_rows)
    tlt_cap = _slo_capacity_krps(tlt_rows)
    summary = [
        {"mode": "dctcp", "slo_capacity_krps": base_cap,
         "break_krps": _break_krps(base_rows), "capacity_ratio": 1.0},
        {"mode": "dctcp+tlt", "slo_capacity_krps": tlt_cap,
         "break_krps": _break_krps(tlt_rows),
         "capacity_ratio": tlt_cap / base_cap if base_cap else float("inf")},
    ]
    return {"base": base_rows, "tlt": tlt_rows, "summary": summary}


def _slo_capacity_2x(result: Dict[str, List[Dict]]):
    # Two conditions: TLT still holds the SLO at the rung that broke the
    # baseline, and its SLO capacity is at least 2x the baseline's.
    base_break = pick(result["summary"], mode="dctcp")["break_krps"]
    tlt = pick(result["summary"], mode="dctcp+tlt")
    return (base_break > 0 and tlt["slo_capacity_krps"] >= base_break
            and tlt["capacity_ratio"] >= 2.0), tlt["capacity_ratio"]


CLAIMS = {
    "slo-capacity-2x": ("One RTO on the critical path blows a ms SLO: TLT holds the p99 SLO "
                        "at the baseline's breaking rate, at >= 2x its capacity",
                        _slo_capacity_2x),
}
