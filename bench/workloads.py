"""The four benchmark workloads: name -> sub-runs of (base, tlt) configs.

A workload is a *scheme pair*: the same scenario with TLT off
(``base``) and on (``tlt``), as every figure of the paper runs it.
Each variant is run as ``SUBRUNS`` short sub-runs, every one a fresh
draw of the same scenario from a seed derived from ``--seed``: their
latency samples and counters are pooled (so a percentile still has its
>= 1 000 samples), and each is one sample of the variant's host cost
per simulated event (``hostspeed.host_cost`` takes the median: this
machine's speed moves by +-30 % within seconds, and one long timing
averages that in). Sizes are fixed (they do not depend on
``--seconds``), so the simulated results of a seed never depend on how
fast the host is.

Everything random comes from ``--seed``. Two rules keep the host cost
of a workload comparable from one seed to the next — the driver takes
the spread of ``cpu_s`` over ten seeds, so a seed must not change how
much is simulated:

- workloads with web_search background draw the scenario seed by
  rejection: candidates ``derive_seed(seed, "bench.<workload>.<i>")``
  are tried until the background volume that seed will generate is
  within 2 % of the distribution mean (the heavy tail otherwise moves
  the simulated bytes, and with them host time, by +-25 %);
- workloads without background are the same for every scenario seed
  (symmetric topology, fixed flow size), so there the seed perturbs
  the incast flow size by at most 1 %.

``quick`` swaps in TINY sizes (seconds for all four; used as each
child's warm-up, by ``bench/tests`` and for smoke runs — not
comparable to full runs).
"""

from __future__ import annotations

import dataclasses
import functools
import random

from repro.experiments.scale import SMALL, TINY, Scale
from repro.experiments.scenarios import ScenarioConfig
from repro.sim.rng import RngRegistry, derive_seed
from repro.workload.distributions import DISTRIBUTIONS

#: Allowed deviation of the drawn background volume from its mean.
VOLUME_TOLERANCE = 0.02


@functools.lru_cache(maxsize=None)
def _mean_flow_bytes(dist: str) -> float:
    """Monte-Carlo mean of a size distribution (0.2 s: once per process)."""
    return DISTRIBUTIONS[dist].mean()


def _volume_matched_seed(seed: int, workload: str, flows: int, dist: str) -> int:
    """Scenario seed whose background flows sum to the mean volume.

    Replays the one stream ``BackgroundTraffic`` draws sizes from
    (``RngRegistry(seed).stream("bg_size")``); the child process checks
    the prediction against the flows the run really created, so a
    change of that stream's name fails the benchmark instead of
    silently widening its spread.
    """
    target = flows * _mean_flow_bytes(dist)
    for attempt in range(10_000):
        candidate = derive_seed(seed, f"bench.{workload}.{attempt}")
        if abs(background_bytes(candidate, flows, dist) - target) <= VOLUME_TOLERANCE * target:
            return candidate
    raise RuntimeError(f"no volume-matched scenario seed for {workload} seed {seed}")


def background_bytes(scenario_seed: int, flows: int, dist: str) -> int:
    """Bytes the background of ``scenario_seed`` will offer."""
    cdf = DISTRIBUTIONS[dist]
    rng = RngRegistry(scenario_seed).stream("bg_size")
    return sum(cdf.sample(rng) for _ in range(flows))


def _jitter(seed: int, workload: str, size: int) -> int:
    """``size`` moved by at most 1 %, from the seed."""
    rng = random.Random(derive_seed(seed, f"bench.{workload}.size"))
    return size + rng.randint(-size // 100, size // 100)


def _service_spec(requests: int, rate_rps: float, backends: int) -> dict:
    """LB -> {cache x4 fanout, storage}: the ``service-slo`` tier graph,
    cache replies clamped at 32 kB (at 64 kB the p99 of 2 000 requests
    moved by 28 % from seed to seed)."""
    return {
        "requests": requests,
        "rate_rps": rate_rps,
        "process": "poisson",
        "lb_hosts": 1,
        "tiers": [
            {"name": "cache", "servers": backends, "fanout": min(4, backends),
             "workload": "cache_follower", "max_bytes": 32_000, "service_ns": 2_000},
            {"name": "storage", "servers": backends, "fanout": 1,
             "workload": "web_server", "max_bytes": 8_000, "service_ns": 10_000},
        ],
    }


#: Sub-runs per variant at full size: as many as fit in a run of about
#: 20 s (the driver's 92 runs must end within 3 420 s on a host that is
#: at times 1.7x slower than when these were sized).
SUBRUNS = {"incast-star": 12, "fabric96-mixed": 6, "roce-leafspine": 10,
           "service-open-loop": 12}
#: ... and with ``quick``.
QUICK_SUBRUNS = 2
#: A traced run profiles this many of them (``cProfile`` costs 2.4-3.6x).
TRACED_SUBRUNS = 8


def _scheme_pair(workload: str, seed: int, quick: bool):
    """``(base, tlt)`` configs of one sub-run of ``workload``."""
    if workload == "incast-star":
        hosts, events, per_sender = (6, 2, 64) if quick else (17, 1, 48)
        base = ScenarioConfig(
            transport="dctcp", topology="star", enable_background=False,
            scale=Scale("bench", 1, 1, hosts, 0, events, per_sender),
            incast_flow_size=_jitter(seed, workload, 8_000), seed=seed)
    elif workload == "fabric96-mixed":
        scale = (dataclasses.replace(TINY, bg_flows=10) if quick
                 else Scale("bench", 4, 12, 8, 6, 1, 8))
        base = ScenarioConfig(
            transport="dctcp", scale=scale, workload="web_search",
            seed=_volume_matched_seed(seed, workload, scale.bg_flows, "web_search"))
    elif workload == "roce-leafspine":
        scale = dataclasses.replace(TINY if quick else SMALL,
                                    incast_events=1, incast_flows_per_sender=12)
        base = ScenarioConfig(
            transport="dcqcn", pfc=True, enable_background=False, scale=scale,
            incast_flow_size=_jitter(seed, workload, 16_000), seed=seed)
    elif workload == "service-open-loop":
        # 125 requests at 50 krps end 2.5 +- 0.3 ms after the start, well
        # inside one 10 ms window of the service drive loop: a run that
        # ended near a boundary would double its duration on some seeds.
        scale, requests = (TINY, 100) if quick else (SMALL, 125)
        base = ScenarioConfig(
            transport="dctcp", scale=scale, seed=seed,
            service=_service_spec(requests, 50_000.0, scale.num_hosts - 1))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    # Explicit, so that no TLT_* environment toggle can reach the run.
    base = dataclasses.replace(base, audit=False, shards=1)
    return base, dataclasses.replace(base, tlt=True)


def scheme_pairs(workload: str, seed: int, quick: bool = False) -> list:
    """The sub-runs of ``workload`` for ``seed``: ``(base, tlt)`` pairs,
    each drawn from its own seed derived from ``seed``."""
    return [_scheme_pair(workload, derive_seed(seed, f"bench.{workload}.sub{i}"), quick)
            for i in range(QUICK_SUBRUNS if quick else SUBRUNS[workload])]


def warm_up(workload: str):
    """The config a child runs before it measures: one ``quick`` TLT
    sub-run of the workload, so the code paths it will time are loaded."""
    return _scheme_pair(workload, 1, quick=True)[1]
