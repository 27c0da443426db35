"""Plain-text CDF / histogram rendering for experiment output."""

from __future__ import annotations

from typing import List, Sequence

from repro.stats.percentile import histogram, percentiles


def ascii_cdf(
    samples: Sequence[float],
    label: str = "",
    width: int = 50,
    points: Sequence[float] = (10, 25, 50, 75, 90, 99, 99.9, 100),
    unit: str = "",
) -> str:
    """Render a CDF as percentile bars.

    Each line shows one percentile with a bar proportional to its value
    relative to the maximum, e.g.::

        p50     1.23 ms  ######################
        p99     4.02 ms  ##################################################
    """
    if not len(samples):
        return f"{label}: (no samples)"
    values = percentiles(samples, points)
    peak = max(values) or 1.0
    lines: List[str] = []
    if label:
        lines.append(label)
    for p, value in zip(points, values):
        bar = "#" * max(1, int(round(width * value / peak)))
        lines.append(f"  p{p:<5} {value:12.4g}{unit}  {bar}")
    return "\n".join(lines)


def ascii_histogram(
    samples: Sequence[float],
    bins: int = 10,
    width: int = 50,
    label: str = "",
    unit: str = "",
) -> str:
    """Render a histogram with ``bins`` equal-width buckets."""
    if not len(samples):
        return f"{label}: (no samples)"
    counts, edges = histogram(samples, bins)
    peak = max(counts) or 1
    lines: List[str] = []
    if label:
        lines.append(label)
    for count, lo, hi in zip(counts, edges, edges[1:]):
        bar = "#" * int(round(width * count / peak))
        lines.append(f"  [{lo:10.4g}, {hi:10.4g}){unit}  {count:6d} {bar}")
    return "\n".join(lines)
