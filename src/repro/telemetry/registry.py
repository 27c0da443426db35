"""Metrics registry: counters, gauges and histograms with label tuples.

The registry binds at construction: callers ask it for a metric
**once**, at construction time, and hold the returned handle. A
disabled registry hands out the shared
:data:`NULL_METRIC` singleton whose methods are empty — the instrumented
code path then costs one no-op attribute call, and nothing at all when
the caller skips instrumentation entirely because telemetry is off.
Because binding happens at construction, flipping a registry between
enabled and disabled after handles were handed out has no effect; build
a new one instead.

Exposition follows the Prometheus text format
(``# HELP`` / ``# TYPE`` + ``name{label="value"} value`` lines), so any
Prometheus-compatible toolchain can scrape a run's final state.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple


class _NullMetric:
    """Shared do-nothing stand-in handed out by a disabled registry."""

    __slots__ = ()

    def labels(self, *values: object) -> "_NullMetric":
        return self

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    @property
    def value(self) -> float:
        return 0.0


NULL_METRIC = _NullMetric()


def _escape_label(value: object) -> str:
    return str(value).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


class _Child:
    """One (metric, label-tuple) series: holds the scalar value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def labels(self, *values: object) -> "_Child":  # pragma: no cover - guard
        raise TypeError("labels() on an already-labelled series")

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def set(self, value: float) -> None:
        self.value = value


#: Default histogram buckets: byte-ish powers of four up to 4 MB.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    256.0, 1024.0, 4096.0, 16384.0, 65536.0, 262144.0, 1048576.0, 4194304.0,
)


class _HistogramChild:
    """One labelled histogram series: cumulative bucket counts + sum."""

    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets: Sequence[float]):
        self.buckets = tuple(buckets)
        self.counts = [0] * len(self.buckets)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                break

    def cumulative(self) -> List[Tuple[float, int]]:
        """``(le, cumulative_count)`` pairs, ``+Inf`` last."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.buckets, self.counts):
            running += count
            out.append((bound, running))
        out.append((float("inf"), self.count))
        return out


class Metric:
    """A named family of series, one per label-value tuple.

    ``metric.labels("tor0", "3")`` returns the child for that label
    tuple (created on first use); unlabelled metrics proxy straight to
    the ``()`` child so ``counter.inc()`` works without ``labels()``.
    """

    kind = "untyped"

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = ()):
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._children: Dict[Tuple[str, ...], object] = {}

    def _new_child(self) -> object:
        return _Child()

    def labels(self, *values: object):
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"{self.name}: expected {len(self.labelnames)} label values, "
                f"got {len(values)}"
            )
        key = tuple(str(v) for v in values)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = self._new_child()
        return child

    # Unlabelled convenience: operate on the () series.
    def inc(self, amount: float = 1.0) -> None:
        self.labels().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self.labels().dec(amount)

    def set(self, value: float) -> None:
        self.labels().set(value)

    def observe(self, value: float) -> None:
        self.labels().observe(value)

    @property
    def value(self) -> float:
        child = self._children.get(())
        return child.value if child is not None else 0.0

    def series(self) -> Iterable[Tuple[Tuple[str, ...], object]]:
        return sorted(self._children.items())

    def _label_str(self, key: Tuple[str, ...], extra: str = "") -> str:
        pairs = [f'{n}="{_escape_label(v)}"' for n, v in zip(self.labelnames, key)]
        if extra:
            pairs.append(extra)
        return "{" + ",".join(pairs) + "}" if pairs else ""

    def exposition(self) -> List[str]:
        lines = [f"# HELP {self.name} {self.help}", f"# TYPE {self.name} {self.kind}"]
        for key, child in self.series():
            lines.append(f"{self.name}{self._label_str(key)} {_format_value(child.value)}")
        return lines


class Counter(Metric):
    kind = "counter"

    def dec(self, amount: float = 1.0) -> None:  # pragma: no cover - guard
        raise TypeError("counters only go up")

    def set(self, value: float) -> None:
        """Snapshot-set (used when mirroring end-of-run NetStats totals)."""
        self.labels().set(value)


class Gauge(Metric):
    kind = "gauge"


class Histogram(Metric):
    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ):
        super().__init__(name, help, labelnames)
        self.buckets = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket bound")

    def _new_child(self) -> object:
        return _HistogramChild(self.buckets)

    def exposition(self) -> List[str]:
        lines = [f"# HELP {self.name} {self.help}", f"# TYPE {self.name} {self.kind}"]
        for key, child in self.series():
            for le, cum in child.cumulative():
                extra = f'le="{_format_value(le)}"'
                lines.append(f"{self.name}_bucket{self._label_str(key, extra)} {cum}")
            lines.append(f"{self.name}_sum{self._label_str(key)} {_format_value(child.sum)}")
            lines.append(f"{self.name}_count{self._label_str(key)} {child.count}")
        return lines


class MetricsRegistry:
    """Create-or-get metric families; render Prometheus text exposition.

    ``MetricsRegistry(enabled=False)`` returns :data:`NULL_METRIC` from
    every factory — the zero-cost disabled path.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._metrics: Dict[str, Metric] = {}

    def _get(self, cls, name: str, help: str, labelnames: Sequence[str], **kwargs):
        if not self.enabled:
            return NULL_METRIC
        existing = self._metrics.get(name)
        if existing is not None:
            if type(existing) is not cls or existing.labelnames != tuple(labelnames):
                raise ValueError(f"metric {name!r} re-registered with a different shape")
            return existing
        metric = cls(name, help, labelnames, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Counter:
        return self._get(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Gauge:
        return self._get(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get(Histogram, name, help, labelnames, buckets=buckets)

    def collect(self) -> List[Metric]:
        return [self._metrics[name] for name in sorted(self._metrics)]

    def to_prometheus(self) -> str:
        lines: List[str] = []
        for metric in self.collect():
            lines.extend(metric.exposition())
        return "\n".join(lines) + ("\n" if lines else "")

    def write_prometheus(self, path: str) -> str:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_prometheus())
        return path


def get_metric(registry: Optional[MetricsRegistry]):
    """``registry`` or the null registry — for optional-telemetry call sites."""
    return registry if registry is not None else MetricsRegistry(enabled=False)
