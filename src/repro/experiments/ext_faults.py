"""Extension — chaos sweep: the §5 fallback claim under injected faults.

Two parts:

- **fallback** — uniform non-congestion corruption at every switch at
  loss rates 0.01% / 0.1% / 1%, baseline transport vs TLT on the same
  fault schedule. The paper's §5 claim: TLT degrades gracefully to the
  underlying transport — random loss kills green packets too, so TLT
  falls back to the RTO like the baseline does, and its FCT is no
  worse at any non-congestion loss rate (the ``tlt-no-worse`` claim).
  Rows where both stacks are fault-RTO-bound compare as statistical
  ties (see :func:`repro.experiments.common.tail_no_worse`).
- **chaos** — a seed-derived random :class:`repro.faults.FaultSchedule`
  (corruption bursts, link flaps with reroute/blackhole windows, PFC
  storms) per seed. Run under ``--audit`` this doubles as a property
  check: whatever the fault pattern, the §4 green-drop faithfulness
  checker and every conservation checker stay silent — only *fault*
  drops ever touch green packets.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Dict, List, Sequence

from repro.experiments.common import resolve_scale, run_grid, tail_no_worse
from repro.experiments.scale import Scale
from repro.experiments.scenarios import ScenarioConfig, build_network
from repro.faults.schedule import FaultSchedule
from repro.sim.rng import derive_seed
from repro.sim.units import MILLIS

#: Injected non-congestion loss rates (0.01%, 0.1%, 1%).
FAULT_RATES = (1e-4, 1e-3, 1e-2)

COLUMNS = [
    "loss_rate", "fct_base_ms", "fct_tlt_ms", "timeouts_base", "timeouts_tlt",
    "fault_drops",
]
CHAOS_COLUMNS = [
    "chaos_seed", "fault_events", "fault_drops", "timeouts_per_1k",
    "fg_p99_ms", "incomplete",
]

TABLES = {
    "fallback": ("Extension: §5 fallback — TLT vs baseline under corruption", COLUMNS),
    "chaos": ("Extension: chaos schedules (flaps, storms, bursts) under TLT", CHAOS_COLUMNS),
}

#: Window faults are placed in for the chaos schedules.
CHAOS_HORIZON_NS = 2 * MILLIS


def corruption_spec(scale: Scale, rate: float) -> Dict:
    """Bernoulli corruption on every switch of the leaf-spine fabric."""
    targets = [f"tor{i}" for i in range(scale.num_tors)]
    targets += [f"spine{i}" for i in range(scale.num_spines)]
    return {
        "events": [
            {
                "time_ns": 0,
                "kind": "corruption_on",
                "target": target,
                "params": {"model": "bernoulli", "rate": rate},
            }
            for target in targets
        ]
    }


def chaos_spec(config: ScenarioConfig, chaos_seed: int) -> Dict:
    """A random-but-reproducible fault schedule for ``config``'s fabric."""
    # Throwaway network: only used to enumerate valid fault targets.
    net = build_network(config)
    rng = random.Random(derive_seed(chaos_seed, "fault.chaos"))
    return FaultSchedule.random(rng, CHAOS_HORIZON_NS, net, max_faults=4).to_spec()


def run(scale="small", seeds: Sequence[int] = (1, 2, 3)) -> Dict[str, List[Dict]]:
    scale = resolve_scale(scale)
    # Per rate, the baseline then TLT on the same fault schedule. The
    # comparison metric is the p99 foreground FCT, the paper's headline:
    # at low corruption rates both stacks tie (corruption rarely hits
    # the tail flow); at high rates the baseline's RTO-driven tail
    # explodes while TLT's fallback keeps it flat.
    averaged = run_grid(
        [ScenarioConfig(transport="dctcp", tlt=tlt, scale=scale,
                        faults=corruption_spec(scale, rate))
         for rate in FAULT_RATES for tlt in (False, True)],
        seeds)
    fallback_rows = [
        {
            "loss_rate": rate,
            "fct_base_ms": base["fg_p99_ms"],
            "fct_tlt_ms": tlt["fg_p99_ms"],
            "timeouts_base": base["timeouts_per_1k"],
            "timeouts_tlt": tlt["timeouts_per_1k"],
            "fault_drops": tlt["fault_drops"],
            "fct_base_ms_std": base["fg_p99_ms_std"],  # the tie rule's slack
        }
        for rate, base, tlt in zip(FAULT_RATES, averaged[0::2], averaged[1::2])
    ]

    # One run per seed, each under its own seed-derived schedule.
    chaos = []
    for seed in seeds:
        config = ScenarioConfig(transport="dctcp", tlt=True, scale=scale, seed=seed)
        chaos.append(replace(config, faults=chaos_spec(config, seed)))
    chaos_rows = [
        {
            "chaos_seed": float(config.seed),
            "fault_events": float(len(config.faults["events"])),
            "fault_drops": row["fault_drops"],
            "timeouts_per_1k": row["timeouts_per_1k"],
            "fg_p99_ms": row["fg_p99_ms"],
            "incomplete": row["incomplete"],
        }
        for config, row in zip(chaos, run_grid(chaos, None))
    ]
    return {"fallback": fallback_rows, "chaos": chaos_rows}


CLAIMS = {
    "tlt-no-worse": (
        "§5: under non-congestion loss TLT falls back to the transport's RTO, its fg p99 "
        "no worse than the baseline's at any rate",
        lambda result: tail_no_worse({
            f"{r['loss_rate']:g}": (r["fct_tlt_ms"], r["fct_base_ms"], r["fct_base_ms_std"])
            for r in result["fallback"]})),
}
