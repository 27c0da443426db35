"""Percentile helpers used by every experiment: pure Python, bit for bit
NumPy's default (``linear``) percentile, ``mean`` and ``histogram`` on
finite samples (the reference in ``tests/test_percentile_exact.py``).
A summary sorts once and reads all its percentiles off that one list.
"""

from __future__ import annotations

from math import floor, fsum
from typing import Dict, Iterable, List, Sequence, Tuple


def _rank(data: Sequence[float], p: float) -> float:
    """The ``p``-th percentile (0-100) of ascending, non-empty ``data``."""
    v = (len(data) - 1) * (p / 100)
    lo = floor(v)
    if lo >= len(data) - 1:
        return data[-1]
    a, b, t = data[lo], data[lo + 1], v - lo
    if a == b:
        return a
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def percentiles(samples: Sequence[float], points: Iterable[float]) -> List[float]:
    """One percentile per point (0-100) over a single sort; 0.0s when
    ``samples`` is empty."""
    data = sorted(map(float, samples))
    return [_rank(data, p) if data else 0.0 for p in points]


def percentile(samples: Sequence[float], p: float) -> float:
    """The ``p``-th percentile (0-100) of ``samples``; 0.0 when empty."""
    return percentiles(samples, (p,))[0]


def histogram(samples: Sequence[float], bins: int) -> Tuple[List[int], List[float]]:
    """Counts and the ``bins + 1`` edges of equal-width buckets over
    [min, max] of non-empty ``samples``; the last bucket is closed and
    a single-valued set spans value ± 0.5."""
    data = [float(value) for value in samples]
    first, last = min(data), max(data)
    if first == last:
        first, last = first - 0.5, last + 0.5
    step = (last - first) / bins
    edges = [first + i * step for i in range(bins)] + [last]
    counts = [0] * bins
    for value in data:
        index = min(int((value - first) / (last - first) * bins), bins - 1)
        # The scaled index can be one off next to an edge; the edges decide.
        if value < edges[index]:
            index -= 1
        elif index < bins - 1 and value >= edges[index + 1]:
            index += 1
        counts[index] += 1
    return counts, edges


def summarize(samples: Sequence[float]) -> Dict[str, float]:
    """Mean / median / p99 / p999 / max summary of a sample set.

    Type contract (same for empty and non-empty inputs, and matched by
    :meth:`repro.stats.streaming.StreamingQuantile.summarize` so the
    two are drop-in interchangeable): ``count`` is a builtin ``int``,
    every other value a builtin ``float`` — never a NumPy scalar, so
    the dicts JSON-serialize and compare identically either way.
    """
    data = sorted(map(float, samples))
    if not data:
        return {"count": 0, "mean": 0.0, "p50": 0.0, "p99": 0.0, "p999": 0.0, "max": 0.0}
    return {
        "count": len(data),
        "mean": fsum(data) / len(data),
        "p50": _rank(data, 50),
        "p99": _rank(data, 99),
        "p999": _rank(data, 99.9),
        "max": data[-1],
    }
