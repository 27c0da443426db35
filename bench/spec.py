"""Names, units and directions of every metric; source of BENCHMARK.json.

``python bench/spec.py`` prints the BENCHMARK.json that matches this
file (``bench/tests`` fails when the committed one differs).

Host and simulated quantities never share a metric: ``cpu_*``,
``peak_*``, ``setup_*``, ``probe.*``, ``*.self_share.*`` and
``*_per_s`` are about the machine the simulator runs on; ``sim_*`` and
the exact counters are about the simulated network and repeat
bit-for-bit for a seed.
"""

from __future__ import annotations

import json

from layers import LAYERS

BACKENDS = ("pure", "compiled")
VARIANTS = ("base", "tlt")

#: name -> why it is in the benchmark (one line; copied to BENCHMARK.json).
WORKLOADS = {
    "incast-star": (
        "16-to-1 DCTCP incast of 8 kB flows on a star, queue pinned at K: switch admission, "
        "flow set-up, loss recovery and TLT marking; routing and link fan-out do almost nothing"),
    "fabric96-mixed": (
        "96-host leaf-spine, web_search background at 40 % load plus incast: long 4-hop flows, "
        "engine heap depth, link delivery, ECMP, ACK processing; largest topology"),
    "roce-leafspine": (
        "DCQCN with PFC, 16 kB incast on a small leaf-spine: the PSN transport family, rate "
        "timers, RED marking and pause/resume in place of byte streams, windows and drops"),
    "service-open-loop": (
        "open-loop Poisson requests at 50 krps, below the knee, through the LB to cache/storage "
        "tier graph: service callbacks, flow creation/retirement, stats sketches; loss-free"),
}

#: Isolation probes (``probes.PROBES`` has one function per name).
PROBE_NAMES = (
    "probe.sim.event_ns",
    "probe.sim.timer_rearm_ns",
    "probe.transport.flow_pkt_ns",
    "probe.net.packet.alloc_ns",
    "probe.stats.sketch_add_ns",
    "probe.service.arrival_ns",
)

#: How long one run measures (the driver passes it as ``--seconds``).
RUN_SECONDS = 16


def _metric(name: str, unit: str, better: str, bound=None) -> dict:
    metric = {"name": name, "unit": unit, "better": better}
    if bound is not None:
        metric["bound"] = bound
    return metric


#: What a user of the simulator pays (host) and trusts (simulated).
#: ``bound``: share of the parent's median by which the metric may get
#: worse. The ``sim_*`` bounds are wide because the driver compares
#: medians over *different* seeds; for one seed a simulator-only change
#: must leave them bit-identical, which ``compare.py`` checks.
END_TO_END = [
    _metric("setup_s", "s", "lower", 0.25),
    _metric("cpu_s.pure", "s", "lower", 0.25),
    _metric("cpu_s.compiled", "s", "lower", 0.25),
    _metric("peak_rss_mb.pure", "MB", "lower", 0.03),
    _metric("peak_rss_mb.compiled", "MB", "lower", 0.03),
    _metric("sim_p99_ms.base", "sim_ms", "lower", 0.15),
    _metric("sim_p99_ms.tlt", "sim_ms", "lower", 0.15),
    _metric("sim_rto_free_per_kflow.base", "count/kflow", "higher", 0.05),
    _metric("sim_goodput_gbps.tlt", "sim_Gbit/s", "higher", 0.25),
]


def _per_layer() -> list:
    metrics = []
    for layer in LAYERS:
        for backend in BACKENDS:
            metrics.append(_metric(f"{layer}.self_share.{backend}", "share", "lower"))
        metrics.append(_metric(f"{layer}.calls.pure", "count", "lower"))
    for backend in BACKENDS:
        metrics.append(_metric(f"trace.other_share.{backend}", "share", "lower"))
        metrics.append(_metric(f"trace.overhead_x.{backend}", "x", "lower"))
        metrics.append(_metric(f"sim.events_per_s.{backend}", "1/s", "higher"))
    metrics += [
        _metric("sim.events", "count", "lower"),
        _metric("net.link.frames", "count", "lower"),
        _metric("net.link.bytes", "bytes", "lower"),
        _metric("switchsim.ecn_marks", "count", "lower"),
        _metric("transport.flows", "count", "higher"),
        _metric("transport.retx_bytes_share.tlt", "sim_share", "lower"),
        _metric("core.important_bytes_share", "sim_share", "lower"),
        _metric("core.clock_pkts", "count", "lower"),
        _metric("core.important_loss_ppm", "ppm", "lower"),
        _metric("stats.flow_records_live", "count", "lower"),
        _metric("stats.rtt_samples", "count", "higher"),
        _metric("service.requests", "count", "higher"),
        _metric("service.ops", "count", "higher"),
        _metric("service.hedges", "count", "lower"),
        _metric("workload.latency_samples", "count", "higher"),
        _metric("setup.build_ext_s", "s", "lower"),
        _metric("setup.import_s", "s", "lower"),
        _metric("setup.build_network_s", "s", "lower"),
        _metric("sim.sharding.wall_ratio_2", "x", "lower"),
        _metric("sim.sharding.identical", "bool", "higher"),
    ]
    for variant in VARIANTS:
        metrics += [
            _metric(f"switchsim.drops_red.{variant}", "count", "lower"),
            _metric(f"switchsim.drops_green.{variant}", "count", "lower"),
            _metric(f"switchsim.pfc_pauses.{variant}", "count", "lower"),
            _metric(f"transport.rto_fires.{variant}", "count", "lower"),
            _metric(f"transport.fast_retx.{variant}", "count", "lower"),
            _metric(f"workload.p50_ms.{variant}", "sim_ms", "lower"),
        ]
    for probe in PROBE_NAMES:
        for backend in BACKENDS:
            metrics.append(_metric(f"{probe}.{backend}", "ns", "lower"))
    return metrics


PER_LAYER = _per_layer()

#: Units of what the host machine spends; every other unit is a
#: simulated value or an exact counter and repeats bit-for-bit per seed.
HOST_UNITS = frozenset({"s", "ns", "x", "1/s", "MB", "share"})
_UNITS = {metric["name"]: metric["unit"] for metric in END_TO_END + PER_LAYER}


def is_simulated(name: str) -> bool:
    """True when the metric must repeat exactly for a seed."""
    return _UNITS[name] not in HOST_UNITS


def benchmark_json() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
