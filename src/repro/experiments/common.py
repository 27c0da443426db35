"""Shared experiment plumbing: the seed-averaged grid of runs and table printing."""

from __future__ import annotations

import statistics
import sys
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.experiments.parallel import Job, metrics_reference, run_jobs
from repro.experiments.scale import SCALES, Scale
from repro.experiments.scenarios import ScenarioConfig, ScenarioResult


def resolve_scale(scale) -> Scale:
    if isinstance(scale, Scale):
        return scale
    return SCALES[scale]


def average(samples: Sequence[Dict[str, float]]) -> Dict[str, float]:
    """Mean of every metric over ``samples`` (one dict per seed), and the
    sample standard deviation as ``k_std`` — 0.0 for a single sample, so
    CSV/JSON schemas are the same at any seed count."""
    row: Dict[str, float] = {}
    for key in samples[0]:
        values = [s[key] for s in samples]
        row[key] = statistics.fmean(values)
        row[key + "_std"] = statistics.stdev(values) if len(values) > 1 else 0.0
    return row


def run_grid(
    points: Sequence[Union[ScenarioConfig, Tuple[ScenarioConfig, object]]],
    seeds: Optional[Sequence[int]],
    metrics: Optional[Callable[[ScenarioResult], Dict[str, float]]] = None,
) -> List[Dict[str, float]]:
    """Run every point once per seed and return one :func:`average` row
    per point, in the order given. The paper averages five seeded runs.

    A point is a config or a ``(config, traffic)`` pair, ``traffic``
    being the run's own workload. The grid is **one** :func:`run_jobs`
    call that submits equal cache keys once, so ``--jobs`` fans all of
    an experiment's runs out at once, finished ones come from the
    on-disk cache, and rows are bit-identical at any worker count.
    ``seeds=None`` runs each point under its config's seed. ``metrics``
    runs in the worker and, like a workload, is in the cache key: a
    lambda or closure is a ``TypeError`` before any run. A failed seed
    is dropped from its point's average with a warning; a point that
    lost every seed raises.
    """
    metrics_ref = metrics_reference(metrics)
    if metrics is not None and metrics_ref is None:
        raise TypeError(f"metrics reducer {metrics!r} is not importable by name")
    points = [point if isinstance(point, tuple) else (point, None) for point in points]
    grid = [(point, seed) for point, (config, _traffic) in enumerate(points)
            for seed in (seeds or (config.seed,))]
    jobs = [Job(index, points[point][0], seed, metrics_ref, points[point][1])
            for index, (point, seed) in enumerate(grid)]
    first: Dict[str, int] = {}  # cache key -> index of the job that runs it
    runs = [first.setdefault(job.cache_key(), job.index) for job in jobs]
    done = {res.index: res for res in run_jobs([jobs[i] for i in sorted(set(runs))])}
    samples: List[List[Dict]] = [[] for _ in points]
    failures: List[List[str]] = [[] for _ in points]
    for (point, seed), res in zip(grid, (done[i] for i in runs)):
        if res.manifest is not None:
            # The one logged for this run: manifest.summarize sums the retries.
            res.manifest["attempts"] = res.attempts
        if res.ok:
            samples[point].append(res.row)
        else:
            failures[point].append(f"seed {seed}: {res.error}")
    for point, (config, traffic) in enumerate(points):
        if failures[point]:
            workload = "" if traffic is None else f", {traffic!r}"
            where = f"point {point} ({config.transport}{'+tlt' if config.tlt else ''}{workload})"
            detail = "; ".join(failures[point])
            if not samples[point]:
                raise RuntimeError(f"{where}: every seed failed: {detail}")
            print(f"warning: {where}: averaging over {len(samples[point])}/"
                  f"{len(samples[point]) + len(failures[point])} seeds ({detail})",
                  file=sys.stderr)
    return [average(point_samples) for point_samples in samples]


def format_table(rows: Iterable[Dict], columns: Sequence[str], title: str = "") -> str:
    """Render rows as a fixed-width text table."""
    rows = list(rows)
    widths = {c: len(c) for c in columns}
    rendered: List[List[str]] = []
    for row in rows:
        cells = []
        for column in columns:
            value = row.get(column, "")
            if isinstance(value, float):
                text = f"{value:.4g}"
            else:
                text = str(value)
            widths[column] = max(widths[column], len(text))
            cells.append(text)
        rendered.append(cells)
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(c.ljust(widths[c]) for c in columns)
    lines.append(header)
    lines.append("-" * len(header))
    for cells in rendered:
        lines.append("  ".join(cell.ljust(widths[c]) for cell, c in zip(cells, columns)))
    return "\n".join(lines)


def print_table(rows: Iterable[Dict], columns: Sequence[str], title: str = "") -> None:
    print(format_table(rows, columns, title))
    print()
