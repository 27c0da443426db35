"""Extension — sharded-execution scaling benchmark.

Runs one incast-heavy leaf-spine scenario twice per seed — single-core
and split across N shard workers (:mod:`repro.sim.sharding`) — and
reports, from the runs' manifests and averaged over the seeds, wall time, events/sec, the
sharded speedup and why it is what it is: barrier windows, cross-shard
messages and the busiest shard's CPU seconds. The two runs are
bit-identical by contract, and this benchmark asserts the cheap
projection of that contract (same duration, same merged event count)
on every invocation, so a scaling regression and a determinism
regression are both visible in its output.

The default fabric is the paper-scale 96-host leaf-spine (4 spines x
12 ToRs x 8 hosts) with a benchmark-sized workload. ``--scale tiny``
keeps the determinism-suite fabric for smoke use.

What to expect (ROADMAP item 3 has the measured table): each shard is
busy about as long as the whole single-engine run, so on 2 cores the
sharded run is 0.8-1.0x; the ``cores`` field records what ran it.
"""

from __future__ import annotations

import os
from dataclasses import replace
from typing import Dict, List, Optional, Sequence

from repro.experiments.common import average
from repro.experiments.scale import Scale, TINY
from repro.experiments.scenarios import ScenarioConfig, run_scenario

#: Paper-scale fabric (96 hosts) with a benchmark-sized workload.
SHARD96 = Scale("shard96", num_spines=4, num_tors=12, hosts_per_tor=8,
                bg_flows=200, incast_events=8, incast_flows_per_sender=8)

COLUMNS = ["mode", "shards", "hosts", "wall_s", "events", "ev_per_s",
           "speedup", "identical", "windows", "messages", "shard_cpu_s"]

TABLES = {"": ("Extension: sharded execution scaling (bit-identical by contract)", COLUMNS)}


def default_shards() -> int:
    return max(2, min(4, os.cpu_count() or 1))


def run(scale="small", seeds: Sequence[int] = (1,),
        shards: Optional[int] = None) -> List[Dict]:
    name = scale if isinstance(scale, str) else scale.name
    fabric = TINY if name == "tiny" else SHARD96
    shards = default_shards() if shards is None else max(2, int(shards))

    samples: Dict[int, List[Dict]] = {1: [], shards: []}
    for seed in seeds:
        base = ScenarioConfig(transport="dctcp", tlt=True, scale=fabric,
                              seed=seed, audit=False)
        signatures = []
        for n in samples:
            result = run_scenario(replace(base, shards=n))
            manifest = result.manifest
            signatures.append((result.duration_ns, manifest["events"],
                               result.net.stats.timeouts,
                               len(result.net.stats.flows)))
            sample = {
                "shards": manifest["shards"],  # what ran
                "wall_s": round(manifest["wall_s"], 3),
                "events": manifest["events"],
                "ev_per_s": manifest["events_per_s"],
            }
            if "shard" in manifest:
                shard = manifest["shard"]
                sample.update(windows=shard["windows"], messages=shard["messages"],
                              shard_cpu_s=max(shard["cpu_s"]))
            samples[n].append(sample)
        if signatures[0] != signatures[1]:
            raise AssertionError(
                f"sharded run diverged from single-core (seed {seed}): "
                f"{signatures[0]} != {signatures[1]}"
            )

    single, sharded = (average(samples[n]) for n in samples)
    single.update(mode="single", hosts=fabric.num_hosts)
    sharded.update(mode="sharded", hosts=fabric.num_hosts, identical=True,
                   cores=os.cpu_count())
    if single["wall_s"] and sharded["wall_s"]:
        sharded["speedup"] = round(single["wall_s"] / sharded["wall_s"], 2)
    return [single, sharded]


#: None checked: a simulator benchmark, not a figure (``run`` itself
#: raises when the sharded run diverges).
CLAIMS: Dict = {}
