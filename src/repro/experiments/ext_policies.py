"""Extension — the switch-policy lab: TLT's K vs the buffer-sharing
literature (ROADMAP item 3).

The paper fixes one MMU configuration — Choudhury–Hahne dynamic
thresholds plus a static color threshold K — and never asks whether
TLT's green/red split survives a different buffer-sharing discipline.
This sweep runs every :mod:`repro.switchsim.policy` admission policy

- ``ch-static-k`` — the paper's default, via ``admission=None`` so it
  exercises the production open-coded fast path, not the generic
  dispatch;
- ``bshare`` — queueing-delay-driven sharing (per-port byte budget =
  line rate × target delay);
- ``fairq`` — the pool split evenly across backlogged ports;
- ``tiny-buffer`` — a small static per-port cap, no sharing;
- ``adaptive-k`` — CH admission plus a controller retuning K from
  live queue occupancy on the engine's timer wheel

through the three §7 scenarios whose figures TLT's headline claims
come from: the Fig 5 incast+background mix, a Fig 9-style high-load
variant, and the Fig 13 emulated-testbed cache/background mix. Run
under ``--audit`` (CI does), every policy's drops are verified against
§4 green-drop faithfulness *for that policy's own admission math* by
the policy-aware auditor.

The ranking table scores each policy by its foreground p99 normalized
to the best policy per scenario (1.0 = best everywhere), averaged over
the three scenarios — lower is better, rank 1 wins.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Sequence, Tuple

from repro.experiments.common import resolve_scale, run_grid
from repro.experiments.fig13_mixed_traffic import CacheWithBackground, mixed_metrics
from repro.experiments.scenarios import ScenarioConfig
from repro.experiments.testbed import paper_testbed

COLUMNS = [
    "policy", "fig5_p99_ms", "fig9_p99_ms", "fig13_p99_ms",
    "timeouts_per_1k", "score", "rank",
]

TABLES = {"": ("Extension: admission-policy lab (Fig 5/9/13 scenarios, "
               "fg p99 normalized to per-scenario best)", COLUMNS)}

#: (row label, ``admission`` spec). ``None`` — not ``"ch-static-k"`` —
#: for the default so the sweep measures the open-coded fast path the
#: experiments actually run (the two are fingerprint-identical; the
#: parity tests pin that).
POLICY_SPECS: Tuple[Tuple[str, object], ...] = (
    ("ch-static-k", None),
    ("bshare", "bshare"),
    ("fairq", "fairq"),
    ("tiny-buffer", "tiny-buffer"),
    ("adaptive-k", "adaptive-k"),
)

#: Fig 9-style stress point: same mix as Fig 5 at elevated load.
FIG9_LOAD = 0.7

SCENARIO_KEYS = ("fig5_p99_ms", "fig9_p99_ms", "fig13_p99_ms")


def run(scale="small", seeds: Sequence[int] = (1, 2)) -> List[Dict]:
    scale = resolve_scale(scale)
    # Per policy, the Fig 5 mix then its Fig 9-style high-load variant.
    configs: List[ScenarioConfig] = []
    for _label, spec in POLICY_SPECS:
        fig5 = ScenarioConfig(transport="dctcp", tlt=True, scale=scale, admission=spec)
        configs += [fig5, replace(fig5, load=FIG9_LOAD)]
    averaged = run_grid(configs, seeds)
    # The Fig 13 column, reduced as fig13 reduces it: its own grid.
    testbed = run_grid([(paper_testbed(transport="dctcp", tlt=True, admission=spec),
                         CacheWithBackground()) for _label, spec in POLICY_SPECS],
                       seeds, mixed_metrics)
    rows: List[Dict] = []
    for (label, _), fig5, fig9, fig13 in zip(POLICY_SPECS, averaged[0::2], averaged[1::2], testbed):
        rows.append({
            "policy": label,
            "fig5_p99_ms": fig5["fg_p99_ms"],
            "fig9_p99_ms": fig9["fg_p99_ms"],
            "fig13_p99_ms": fig13["fg_p99_ms"],
            "timeouts_per_1k": (fig5["timeouts_per_1k"]
                                + fig9["timeouts_per_1k"]) / 2,
        })

    # Score: per-scenario p99 normalized to the best policy (so every
    # scenario carries equal weight regardless of its absolute scale),
    # averaged; rows come back ranked, rank 1 = lowest score.
    best = {
        key: min(row[key] for row in rows) or 1.0 for key in SCENARIO_KEYS
    }
    for row in rows:
        row["score"] = sum(
            row[key] / best[key] if best[key] else 1.0 for key in SCENARIO_KEYS
        ) / len(SCENARIO_KEYS)
    rows.sort(key=lambda r: r["score"])
    for rank, row in enumerate(rows, start=1):
        row["rank"] = float(rank)
    return rows


#: None checked: the paper fixes one MMU, so it claims no ranking.
CLAIMS: Dict = {}
