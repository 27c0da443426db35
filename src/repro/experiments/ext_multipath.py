"""Extension — multipath load balancing under asymmetry and flaps.

The paper's evaluation (and PRs 1-8) runs every fabric as single-path
ECMP over symmetric links, which is exactly where the §5 "TLT keeps
the tail flat" claim is easiest. This extension probes the claim on
the k=4 fat-tree with the machinery of this PR: per-switch path
selection (``static-hash`` / ``flowlet`` / ``wcmp``), asymmetric core
capacity, and link flaps with an overlapping-window degrade.

Two parts:

- **modes** — the asymmetric fat-tree (one core at quarter rate), no
  faults: baseline transport vs TLT for each selection mode. Ranks the
  selectors (wcmp shifts load off the slow core by weight; flowlet by
  idle-gap re-picks) and shows TLT's FCT win survives asymmetry.
- **churn** — TLT per selection mode on the *symmetric* vs the
  *asymmetric* fat-tree, both running the same flap schedule (two
  overlapping edge-uplink down windows + a mid-run core degrade, the
  shapes of :mod:`repro.faults`). The claim (§5 under churn):
  foreground p99 on the asymmetric fabric is no worse than on the
  symmetric one within the tolerance of
  :func:`repro.experiments.common.tail_no_worse` — the multipath layer
  absorbs the capacity skew instead of letting the degraded paths grow
  an RTO-bound tail.

Run under ``--audit`` this doubles as a property check: flowlet/wcmp
re-picks during flap windows must never enqueue on a down port (the
auditor's dead-egress invariant) and green-drop faithfulness holds on
every path.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.experiments.common import resolve_scale, run_grid, tail_no_worse
from repro.experiments.scenarios import ScenarioConfig
from repro.sim.units import MICROS

#: Selection modes ranked by the experiment (FIB kinds, see
#: :func:`repro.net.routing.make_fib`).
MODES = ("static-hash", "flowlet", "wcmp")

#: Per-core rate factors for the asymmetric k=4 fat-tree: core3 at
#: quarter rate. wcmp sees it as weight 10 vs 40; flowlet drains it by
#: re-picking; static-hash keeps hashing flows onto it.
ASYM_CORES = (1.0, 1.0, 1.0, 0.25)

COLUMNS = [
    "mode", "fct_base_ms", "fct_tlt_ms", "timeouts_base", "timeouts_tlt",
    "flowlets", "reroutes",
]
CHURN_COLUMNS = [
    "mode", "fct_sym_ms", "fct_asym_ms", "timeouts_per_1k", "flowlets",
    "reroutes", "incomplete",
]

TABLES = {
    "modes": ("Extension: selection modes on the asymmetric fat-tree", COLUMNS),
    "churn": ("Extension: §5 gate under flaps — asymmetric vs symmetric tail",
              CHURN_COLUMNS),
}


def flap_spec() -> Dict:
    """Flap schedule for the k=4 fat-tree: two *overlapping* edge-uplink
    down windows (the resurrection-bug shape — pod 0's edges lose one
    uplink each, staggered so both windows are open at once) plus a
    mid-run degrade/restore on the already-slow core."""
    return {
        "events": [
            {"time_ns": 100 * MICROS, "kind": "link_down", "target": "edge0_0:2"},
            {"time_ns": 300 * MICROS, "kind": "link_down", "target": "edge0_1:2"},
            {"time_ns": 700 * MICROS, "kind": "link_up", "target": "edge0_0:2"},
            {"time_ns": 900 * MICROS, "kind": "link_up", "target": "edge0_1:2"},
            {"time_ns": 400 * MICROS, "kind": "link_degrade", "target": "core3:0",
             "params": {"factor": 0.5}},
            {"time_ns": 1200 * MICROS, "kind": "link_restore", "target": "core3:0"},
        ]
    }


def _config(scale, mode: str, *, tlt: bool, asym: bool, faults=None) -> ScenarioConfig:
    return ScenarioConfig(
        transport="dctcp", tlt=tlt, scale=scale, topology="fat_tree",
        path_selection=mode,
        core_rate_factors=ASYM_CORES if asym else None,
        faults=faults,
    )


def run(scale="small", seeds: Sequence[int] = (1, 2, 3)) -> Dict[str, List[Dict]]:
    scale = resolve_scale(scale)

    # Per mode, the baseline then TLT on the asymmetric fabric; the FCT
    # compared is the p99 foreground FCT, the paper's headline.
    averaged = run_grid(
        [_config(scale, mode, tlt=tlt, asym=True) for mode in MODES for tlt in (False, True)],
        seeds)
    mode_rows = [
        {
            "mode": mode,
            "fct_base_ms": base["fg_p99_ms"],
            "fct_tlt_ms": tlt["fg_p99_ms"],
            "timeouts_base": base["timeouts_per_1k"],
            "timeouts_tlt": tlt["timeouts_per_1k"],
            "flowlets": tlt["flowlets"],
            "reroutes": tlt["reroutes"],
        }
        for mode, base, tlt in zip(MODES, averaged[0::2], averaged[1::2])
    ]

    # Per mode, the symmetric then the asymmetric fabric under the flaps.
    spec = flap_spec()
    averaged = run_grid(
        [_config(scale, mode, tlt=True, asym=asym, faults=spec)
         for mode in MODES for asym in (False, True)],
        seeds)
    churn_rows = [
        {
            "mode": mode,
            "fct_sym_ms": sym["fg_p99_ms"],
            "fct_asym_ms": asym["fg_p99_ms"],
            "timeouts_per_1k": asym["timeouts_per_1k"],
            "flowlets": asym["flowlets"],
            "reroutes": asym["reroutes"],
            "incomplete": asym["incomplete"],
            "fct_sym_ms_std": sym["fg_p99_ms_std"],  # the tie rule's slack
        }
        for mode, sym, asym in zip(MODES, averaged[0::2], averaged[1::2])
    ]
    return {"modes": mode_rows, "churn": churn_rows}


CLAIMS = {
    "asym-no-worse-under-flaps": (
        "§5 under churn: with the same flaps, the asymmetric fabric's fg p99 is no worse "
        "than the symmetric one's, every selection mode",
        lambda result: tail_no_worse({
            r["mode"]: (r["fct_asym_ms"], r["fct_sym_ms"], r["fct_sym_ms_std"])
            for r in result["churn"]})),
}
