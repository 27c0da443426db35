"""Figure 10 — fraction of important packets vs foreground share.

With no foreground traffic only ~3% of bytes are important; the
fraction grows with the incast share because short flows have a higher
important fraction and congestion shrinks windows.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Sequence

from repro.experiments.common import resolve_scale, run_grid, vs
from repro.experiments.scenarios import ScenarioConfig

DEFAULT_SHARES = (0.0, 0.02, 0.05, 0.10, 0.15, 0.20)

COLUMNS = ["fg_share", "important_fraction", "important_loss_rate", "fg_p999_ms"]

TABLES = {"": ("Figure 10: fraction of important packets vs foreground share", COLUMNS)}


def run(scale="small", seeds: Sequence[int] = (1,),
        shares: Sequence[float] = DEFAULT_SHARES) -> List[Dict]:
    scale = resolve_scale(scale)
    base = ScenarioConfig(transport="dctcp", tlt=True, scale=scale)
    rows = run_grid(
        [replace(base, fg_share=share) if share > 0 else replace(base, enable_incast=False)
         for share in shares],
        seeds)
    for row, share in zip(rows, shares):
        row["fg_share"] = share
    return rows


def _fraction_grows(rows: List[Dict]):
    most, none = rows[-1]["important_fraction"], rows[0]["important_fraction"]
    return most > none, f"important_fraction {vs(most, none)}"


CLAIMS = {
    "fraction-grows-with-fg": ("More foreground traffic, more important packets",
                               _fraction_grows),
    "bg-only-fraction-below-0.15": (
        "Background-only traffic marks a small fraction important (3.29 %)",
        lambda rows: (rows[0]["important_fraction"] < 0.15, rows[0]["important_fraction"])),
}
