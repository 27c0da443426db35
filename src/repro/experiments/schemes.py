"""Named scheme variants used across Figures 5-7 and 15."""

from __future__ import annotations

from dataclasses import replace
from typing import Dict

from repro.core.config import TltConfig
from repro.experiments.scenarios import ScenarioConfig
from repro.sim.units import MICROS

#: The reduced-RTO_min scheme of Figs 1, 5, 7 and 14.
RTO_200US = {"name": "rto", "min_ns": 200 * MICROS}


def tcp_schemes(base: ScenarioConfig) -> Dict[str, ScenarioConfig]:
    """The paper's loss-recovery variants for TCP/DCTCP (Fig 5)."""
    return {
        "baseline": base,
        "baseline+pfc": replace(base, pfc=True),
        "tlp": replace(base, recovery="tlp"),
        "rto200us": replace(base, recovery=RTO_200US),
        "tlt": replace(base, tlt=True),
        "tlt+pfc": replace(base, tlt=True, pfc=True),
    }


def roce_schemes(base: ScenarioConfig) -> Dict[str, ScenarioConfig]:
    """Baseline / +PFC / +TLT / +TLT+PFC for a RoCE transport (Fig 6)."""
    schemes = {
        "baseline": base,
        "baseline+pfc": replace(base, pfc=True),
        "tlt": replace(base, tlt=True),
        "tlt+pfc": replace(base, tlt=True, pfc=True),
    }
    if base.transport == "irn":
        # IRN is evaluated without PFC (its whole point), as in the paper.
        schemes = {"baseline": base, "tlt": replace(base, tlt=True)}
    if base.transport == "dcqcn" and base.tlt_config.periodic_n is None:
        # Vanilla DCQCN uses periodic marking N=96 (§7.1).
        for name in ("tlt", "tlt+pfc"):
            schemes[name] = replace(
                schemes[name], tlt_config=TltConfig(periodic_n=96)
            )
    return schemes
