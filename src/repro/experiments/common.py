"""Shared experiment plumbing: the seed-averaged grid of runs, the
paper's claims checked on its rows, and table printing."""

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


# -- the paper's claims ------------------------------------------------------------
#
# Every registry module declares ``CLAIMS``: ``{name: (paper_statement,
# predicate)}``, where ``predicate(result)`` takes what the module's
# ``run()`` returned and gives ``(holds, measured)``, ``measured`` a
# number or a short text of the numbers compared. ``{}`` claims nothing.


def pick(rows: Iterable[Dict], **labels) -> Dict:
    """The one row whose columns equal ``labels``; a ``LookupError``
    naming them when no row or several rows match."""
    matches = [row for row in rows
               if all(key in row and row[key] == value for key, value in labels.items())]
    if len(matches) != 1:
        raise LookupError(f"{len(matches)} rows match {labels}, expected 1")
    return matches[0]


def vs(value: float, reference: float) -> str:
    """``measured`` text of a claim comparing two numbers."""
    return f"{value:.3g} vs {reference:.3g}"


def at_most(pairs: Dict[str, Tuple[float, float]], factor: float = 1.0) -> Tuple[bool, str]:
    """``(holds, measured)`` of "every ``value <= factor * reference``"
    over ``pairs``, ``{label: (value, reference)}``."""
    return (all(value <= factor * reference for value, reference in pairs.values()),
            ", ".join(f"{label} {vs(*pair)}" for label, pair in pairs.items()))


def all_zero(values: Dict[str, float]) -> Tuple[bool, str]:
    """``(holds, measured)`` of "every one of ``values`` is 0"."""
    return (all(value == 0 for value in values.values()),
            ", ".join(f"{label} {value:.3g}" for label, value in values.items()))


def tail_no_worse(tails: Dict[str, Tuple[float, float, float]]) -> Tuple[bool, str]:
    """``(holds, measured)`` of the §5 "no worse" tie rule over ``tails``,
    ``{label: (p99 FCT, reference p99 FCT, the reference's seed-to-seed
    std)}`` in ms: a tail is worse only when it exceeds the reference by
    more than that std, 5 % of it and 0.1 ms. Where both stacks are
    fault-RTO-bound the tail is noise in either direction, and a gap
    smaller than half an RTO_min cannot be a timeout, only jitter."""
    return (all(ms <= ref + max(std, 0.05 * ref, 0.1) for ms, ref, std in tails.values()),
            ", ".join(f"{label} {vs(ms, ref)}" for label, (ms, ref, _std) in tails.items()))


def check_claims(module, result) -> List[Dict]:
    """Judge ``module.CLAIMS`` on ``result``, what its ``run()`` returned:
    one ``{claim, paper, measured, verdict}`` per claim, in order. A
    predicate that names a missing row or column raises."""
    checked = []
    for name, (paper, predicate) in module.CLAIMS.items():
        holds, measured = predicate(result)
        checked.append({"claim": name, "paper": paper, "measured": measured,
                        "verdict": "✔" if holds else "✘"})
    return checked


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
