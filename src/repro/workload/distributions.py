"""Flow-size distributions.

The paper draws background flow sizes from three published datacenter
workloads: *web search* (DCTCP [17]), *web server* and *cache follower*
(Facebook [49]). The original trace files are not distributed with the
paper; the piecewise CDFs below are synthesized from the published
figures (a documented substitution — see DESIGN.md). The web-search
distribution is calibrated to the paper's stated 1.72 MB mean.

Sampling interpolates log-linearly in size between CDF knots, which
preserves the heavy tail without step artifacts.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Sequence, Tuple


class EmpiricalCdf:
    """Piecewise CDF over flow sizes (bytes)."""

    def __init__(self, name: str, points: Sequence[Tuple[int, float]]):
        if not points:
            raise ValueError("need at least one CDF point")
        prev_size, prev_p = 0, 0.0
        for size, p in points:
            if size <= prev_size or p < prev_p or p > 1.0:
                raise ValueError(f"CDF points must be increasing: {points}")
            prev_size, prev_p = size, p
        if abs(points[-1][1] - 1.0) > 1e-9:
            raise ValueError("last CDF point must have probability 1.0")
        self.name = name
        self.points: List[Tuple[int, float]] = [(int(s), float(p)) for s, p in points]
        self._means: Dict[Tuple[int, int], float] = {}

    def sample(self, rng: random.Random) -> int:
        """Draw one flow size."""
        u = rng.random()
        prev_size, prev_p = 1, 0.0
        for size, p in self.points:
            if u <= p:
                if p == prev_p:
                    return size
                frac = (u - prev_p) / (p - prev_p)
                # Log-linear interpolation between knots.
                log_size = math.log(prev_size) + frac * (math.log(size) - math.log(prev_size))
                return max(1, int(round(math.exp(log_size))))
            prev_size, prev_p = size, p
        return self.points[-1][0]

    def mean(self, samples: int = 200_000, seed: int = 7) -> float:
        """Monte-Carlo mean of the distribution: a pure function of
        ``(samples, seed)``, so it is drawn once and remembered."""
        mean = self._means.get((samples, seed))
        if mean is None:
            rng = random.Random(seed)
            total = 0
            for _ in range(samples):
                total += self.sample(rng)
            mean = self._means[(samples, seed)] = total / samples
        return mean


#: Web search (DCTCP [17]); calibrated to a ~1.7 MB mean.
WEB_SEARCH = EmpiricalCdf(
    "web_search",
    [
        (6_000, 0.15),
        (13_000, 0.20),
        (19_000, 0.30),
        (33_000, 0.40),
        (53_000, 0.53),
        (133_000, 0.60),
        (667_000, 0.70),
        (1_467_000, 0.80),
        (2_107_000, 0.90),
        (6_667_000, 0.95),
        (20_000_000, 0.98),
        (30_000_000, 1.00),
    ],
)

#: Web server (Facebook [49]): dominated by small responses.
WEB_SERVER = EmpiricalCdf(
    "web_server",
    [
        (300, 0.10),
        (1_000, 0.30),
        (2_000, 0.50),
        (5_000, 0.70),
        (20_000, 0.80),
        (100_000, 0.90),
        (500_000, 0.97),
        (5_000_000, 1.00),
    ],
)

#: Cache follower (Facebook [49]): bimodal small gets / larger objects.
CACHE_FOLLOWER = EmpiricalCdf(
    "cache_follower",
    [
        (400, 0.20),
        (2_000, 0.50),
        (10_000, 0.65),
        (70_000, 0.80),
        (400_000, 0.90),
        (1_500_000, 0.97),
        (10_000_000, 1.00),
    ],
)

DISTRIBUTIONS: Dict[str, EmpiricalCdf] = {
    "web_search": WEB_SEARCH,
    "web_server": WEB_SERVER,
    "cache_follower": CACHE_FOLLOWER,
}
