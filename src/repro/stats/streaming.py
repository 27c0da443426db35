"""Streaming percentile estimation for million-sample runs.

The :class:`Reservoir` (PR 2) keeps percentiles unbiased by sampling,
but a service run of 10^6+ requests wants *every* sample folded in with
O(1) memory — and sharded workers need partial results that merge
**bit-identically** regardless of merge order. Both rule out exact
sample sets (unbounded memory) and P² (no merge operation).

:class:`StreamingQuantile` is a DDSketch-style log-bucketed histogram:

- a value ``v > 0`` lands in bucket ``ceil(log_gamma(v))`` where
  ``gamma = (1 + alpha) / (1 - alpha)``, so every bucket spans one
  ``gamma``-factor of the value range;
- a quantile is answered with the bucket's geometric midpoint, which is
  within relative error ``alpha`` (default **1%**) of a true sample at
  that rank — the documented tolerance tests assert against exact NumPy
  percentiles;
- memory is O(number of occupied buckets): the full integer-nanosecond
  latency range (1 ns .. ~3 hours) spans fewer than ~1500 buckets at
  the default ``alpha``, independent of how many samples stream in;
- ``merge`` adds bucket counts elementwise — integer addition is
  commutative and associative, so for integer samples (latencies are
  integer nanoseconds) any merge tree over any shard split of one
  stream reproduces the single-stream sketch **exactly**
  (``to_state()`` equality, not just close quantiles).

``count``/``sum``/``min``/``max`` are tracked exactly, so ``mean`` and
``max`` in :meth:`summarize` carry no sketch error.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence, Tuple

#: Default relative-accuracy target (1%); see the class docstring.
DEFAULT_ALPHA = 0.01

#: Serialized-state schema version (bump on layout changes).
STATE_SCHEMA = 1


class StreamingQuantile:
    """Online quantile sketch with deterministic cross-worker merge."""

    __slots__ = ("alpha", "_gamma", "_log_gamma", "count", "total",
                 "zeros", "_min", "_max", "buckets")

    def __init__(self, alpha: float = DEFAULT_ALPHA):
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        self.alpha = alpha
        self._gamma = (1.0 + alpha) / (1.0 - alpha)
        self._log_gamma = math.log(self._gamma)
        self.count = 0
        # Exact sum. Integer samples (the nanosecond-latency contract)
        # keep this an int, so it is order-independent — required for
        # the bit-identical merge guarantee. Float samples degrade it
        # to float accumulation: still deterministic for a fixed
        # ingest/merge order, but not split-invariant.
        self.total = 0
        self.zeros = 0  # values <= 0 (clamped; latencies are >= 0)
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        #: bucket index -> sample count (sparse; O(log range) entries).
        self.buckets: Dict[int, int] = {}

    # -- ingest -----------------------------------------------------------------

    def add(self, value: float) -> None:
        """Fold one sample in (O(1))."""
        self.count += 1
        self.total += value
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value
        if value <= 0:
            self.zeros += 1
            return
        index = math.ceil(math.log(value) / self._log_gamma)
        self.buckets[index] = self.buckets.get(index, 0) + 1

    def extend(self, values: Sequence[float]) -> None:
        for value in values:
            self.add(value)

    # -- queries ----------------------------------------------------------------

    def _bucket_value(self, index: int) -> float:
        # Geometric midpoint of (gamma^(i-1), gamma^i]: relative error
        # from any sample in the bucket is at most alpha.
        return 2.0 * self._gamma ** index / (self._gamma + 1.0)

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (0..1), within ``alpha`` relative error
        of the exact nearest-rank sample; 0.0 when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self.count == 0:
            return 0.0
        rank = max(0, math.ceil(q * self.count) - 1)  # 0-based nearest rank
        if rank < self.zeros:
            return 0.0
        cumulative = self.zeros
        for index in sorted(self.buckets):
            cumulative += self.buckets[index]
            if cumulative > rank:
                return self._bucket_value(index)
        return float(self._max or 0.0)

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile (0-100); mirrors
        :func:`repro.stats.percentile.percentile`."""
        return self.quantile(p / 100.0)

    @property
    def mean(self) -> float:
        return float(self.total / self.count) if self.count else 0.0

    @property
    def min(self) -> float:
        return float(self._min) if self._min is not None else 0.0

    @property
    def max(self) -> float:
        return float(self._max) if self._max is not None else 0.0

    def summarize(self) -> Dict[str, float]:
        """Summary dict with the exact key set (and types: ``count``
        int, everything else float) of
        :func:`repro.stats.percentile.summarize`."""
        return {
            "count": int(self.count),
            "mean": float(self.mean),
            "p50": float(self.quantile(0.50)),
            "p99": float(self.quantile(0.99)),
            "p999": float(self.quantile(0.999)),
            "max": float(self.max),
        }

    # -- merge / serialization ---------------------------------------------------

    def merge(self, other: "StreamingQuantile") -> "StreamingQuantile":
        """Fold ``other`` in, in place. Deterministic: any merge order
        over any split of one stream yields the identical state."""
        if abs(other.alpha - self.alpha) > 1e-12:
            raise ValueError(
                f"cannot merge sketches with different alpha "
                f"({self.alpha} vs {other.alpha})")
        self.count += other.count
        self.total += other.total
        self.zeros += other.zeros
        if other._min is not None and (self._min is None or other._min < self._min):
            self._min = other._min
        if other._max is not None and (self._max is None or other._max > self._max):
            self._max = other._max
        for index, cnt in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + cnt
        return self

    def to_state(self) -> Dict:
        """Canonical JSON-able state. Two sketches that saw the same
        multiset of samples (in any order, via any shard split) produce
        **equal** states — the merge-determinism contract."""
        return {
            "schema": STATE_SCHEMA,
            "alpha": self.alpha,
            "count": self.count,
            "total": self.total,
            "zeros": self.zeros,
            "min": self._min,
            "max": self._max,
            "buckets": sorted(self.buckets.items()),
        }

    @classmethod
    def from_state(cls, state: Dict) -> "StreamingQuantile":
        if state.get("schema") != STATE_SCHEMA:
            raise ValueError(f"unknown sketch state schema: {state.get('schema')!r}")
        sketch = cls(alpha=state["alpha"])
        sketch.count = int(state["count"])
        sketch.total = state["total"]  # int stays int (exactness)
        sketch.zeros = int(state["zeros"])
        sketch._min = state["min"]
        sketch._max = state["max"]
        sketch.buckets = {int(k): int(v) for k, v in state["buckets"]}
        return sketch

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:  # pragma: no cover
        return (f"StreamingQuantile(count={self.count}, "
                f"buckets={len(self.buckets)}, alpha={self.alpha})")


def merge_all(sketches: Sequence[StreamingQuantile],
              alpha: float = DEFAULT_ALPHA) -> StreamingQuantile:
    """Merge shard sketches into a fresh one (inputs untouched)."""
    merged = StreamingQuantile(alpha=sketches[0].alpha if sketches else alpha)
    for sketch in sketches:
        merged.merge(sketch)
    return merged


def merge_states(states: Sequence[Dict]) -> Dict:
    """Merge serialized shard states (the cross-process form)."""
    return merge_all([StreamingQuantile.from_state(s) for s in states]).to_state()


__all__: Tuple[str, ...] = ("StreamingQuantile", "merge_all", "merge_states",
                            "DEFAULT_ALPHA")
