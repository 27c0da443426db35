"""The run manifest: one account of what a run was and what it cost.

Every run ends in :func:`repro.experiments.scenarios.finish_run`, the
only caller of :func:`build`, which appends the result to :data:`LOG`;
``run_jobs`` appends what pool workers and cache hits send back,
``run_grid`` notes the ``attempts`` each of its runs took, the sharded
coordinator overlays :func:`cost` and a ``shard`` section on its
workers' manifests, and the CLI clears the log before an experiment and
prints a footer from :func:`summarize` after it. Every field and where
it is written: docs/API.md, "Run manifest".
"""

from __future__ import annotations

import resource
import sys
import time
from collections import deque
from typing import Dict, Iterable, Optional

from repro.sim.backend import current_backend

#: The ``"schema"`` of every manifest document (per run, per experiment,
#: ``profile_<id>.json``); tools/check_telemetry.py checks it.
SCHEMA = 1
#: What a run cost; the other fields say what it was.
COST_FIELDS = ("wall_s", "cpu_s", "events", "events_per_s", "peak_rss_mb")
#: Finished runs of this process, oldest dropped first.
LOG: deque = deque(maxlen=4096)


def cost(started: tuple, events: int) -> Dict:
    """The cost fields since ``started``, a ``(perf_counter, process_time,
    events_processed)`` mark (``Network.stamp``); RSS is this process's
    high-water mark."""
    wall_s = time.perf_counter() - started[0]
    events -= started[2]
    return {
        "wall_s": round(wall_s, 6),
        "cpu_s": round(time.process_time() - started[1], 6),
        "events": events,
        "events_per_s": round(events / wall_s) if wall_s > 0 else 0,
        "peak_rss_mb": round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }


def build(net, control, config, run_id: str, shard: Optional[int] = None) -> Dict:
    """One finished run's manifest, read off ``net``, its ``config`` and the
    resolved run ``control``. ``shards`` is what ran, not what was asked
    for (``shard``, a worker's index, marks one part of a sharded run)."""
    return dict(
        schema=SCHEMA,
        run_id=run_id, transport=config.transport, tlt=config.tlt,
        seed=config.seed, scale=config.scale.name, topology=config.topology,
        backend=current_backend(),
        shards=control.shards if shard is not None else 1,
        audit=control.audit,
        faults=control.faults is not None,
        telemetry=control.telemetry is not None,
        checkpoint=control.checkpoint is not None,
        python="%d.%d.%d" % sys.version_info[:3],
        sim_ns=net.engine.now,
        flows=net.stats.flow_count(),
        incomplete=net.stats.incomplete_flows(),
        **cost(net.started, net.engine.events_processed))


def summarize(experiment: str, manifests: Iterable[Dict], code: str,
              elapsed_s: float, jobs: int) -> Dict:
    """One experiment's document: totals over its runs (a cached run
    counts with the cost of the run that produced it) and the manifests
    themselves; ``code`` stamps the ones executed here. ``elapsed_s`` is
    the wall clock around the whole experiment with ``jobs`` workers, to
    set against ``wall_s``, the sum over its runs; ``retries`` sums the
    extra ``attempts`` ``run_grid`` noted on the runs that needed them."""
    runs = [m if "code" in m else {**m, "code": code} for m in manifests]
    wall_s = sum(m["wall_s"] for m in runs)
    events = sum(m["events"] for m in runs)
    return {
        "schema": SCHEMA,
        "experiment": experiment,
        "runs": len(runs),
        "cached_runs": sum(1 for m in runs if m.get("cached")),
        "backend": "+".join(sorted({m["backend"] for m in runs})) or current_backend(),
        "code": "+".join(sorted({m["code"] for m in runs})) or code,
        "events": events,
        "wall_s": round(wall_s, 6),
        "elapsed_s": round(elapsed_s, 6),
        "jobs": jobs,
        "retries": sum(m.get("attempts", 1) - 1 for m in runs),
        "cpu_s": round(sum(m["cpu_s"] for m in runs), 6),
        "events_per_s": round(events / wall_s) if wall_s > 0 else 0,
        "peak_rss_mb": max((m["peak_rss_mb"] for m in runs), default=0.0),
        "manifests": runs,
    }
