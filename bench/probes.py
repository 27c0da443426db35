"""Isolation probes: host nanoseconds per public call of one layer.

Each probe drives one layer alone, through its public entry points, on
whatever backend is active (the caller has already called
``set_backend``), so a change of a layer's cost shows here without the
rest of a scenario around it. Counts are fixed; every probe reports the
median of ``REPEATS`` timings.
"""

from __future__ import annotations

import statistics
import time

from repro.experiments.scale import Scale
from repro.experiments.scenarios import (
    ScenarioConfig,
    build_network,
    make_transport_config,
)
from repro.net.packet import PacketKind, recycle
from repro.service.arrivals import OpenLoopArrivals
from repro.sim.backend import create_engine
from repro.stats.streaming import StreamingQuantile
from repro.transport import base as transport_base
from repro.transport.base import FlowSpec
from repro.transport.registry import create_flow

REPEATS = 3


def _noop() -> None:
    pass


def _median_ns(run) -> float:
    """Median over ``REPEATS`` of ``run()``'s host ns per unit of work;
    ``run`` returns the units of work it did."""
    samples = []
    for _ in range(REPEATS):
        started = time.perf_counter_ns()
        units = run()
        samples.append((time.perf_counter_ns() - started) / units)
    return statistics.median(samples)


def sim_event_ns(count: int = 100_000) -> float:
    """A chain of ``count`` events, each scheduling the next: the bare
    engine (the shape of ``benchmarks/test_simulator_perf.py``'s
    ``test_engine_event_throughput``, so the two numbers line up)."""
    def run():
        engine = create_engine()

        def chain(left: int) -> None:
            if left:
                engine.schedule(1, chain, left - 1)

        engine.schedule(0, chain, count)
        engine.run()
        return engine.events_processed
    return _median_ns(run)


def sim_timer_rearm_ns(count: int = 50_000) -> float:
    """Arm a wheel timer, cancel it, re-arm it: what an RTO does per ACK."""
    def run():
        engine = create_engine()
        timer = engine.schedule_timer(4_000_000, _noop)
        for _ in range(count):
            timer.cancel()
            timer = engine.schedule_timer(4_000_000, _noop)
        return count
    return _median_ns(run)


def transport_flow_pkt_ns(size: int = 6_000_000) -> float:
    """One DCTCP+TLT flow across a 2-host star, per frame on any link."""
    config = ScenarioConfig(transport="dctcp", tlt=True, topology="star",
                            scale=Scale("probe", 1, 1, 2, 0, 0, 0), audit=False)

    def run():
        net = build_network(config)
        create_flow("dctcp", net, FlowSpec(net.new_flow_id(), 0, 1, size, group="fg"),
                    make_transport_config(config), config.tlt_config)
        net.engine.run()
        if net.stats.incomplete_flows():
            raise RuntimeError("probe flow did not complete")
        return sum(port.tx_packets for device in net.hosts + net.switches
                   for port in device.ports)
    return _median_ns(run)


def net_packet_alloc_ns(count: int = 100_000) -> float:
    """Allocate and recycle a data packet with the allocator transports
    use (``build_network`` binds the compiled one on that backend)."""
    build_network(ScenarioConfig(topology="star", scale=Scale("probe", 1, 1, 2, 0, 0, 0)))
    alloc = transport_base.alloc_packet

    def run():
        for seq in range(count):
            recycle(alloc(1, 0, 1, PacketKind.DATA, seq, 1460))
        return count
    return _median_ns(run)


def stats_sketch_add_ns(count: int = 100_000) -> float:
    """Fold integer latencies into a ``StreamingQuantile``."""
    def run():
        sketch = StreamingQuantile()
        for value in range(1_000, 1_000 + count):
            sketch.add(value)
        return sketch.count
    return _median_ns(run)


def service_arrival_ns(count: int = 50_000) -> float:
    """Open-loop Poisson arrivals into a sink that does nothing."""
    def run():
        engine = create_engine()
        arrivals = OpenLoopArrivals(engine, _noop, count, 1_000_000.0, seed=1)
        arrivals.schedule()
        engine.run()
        return arrivals.generated
    return _median_ns(run)


#: metric name (without the backend suffix) -> probe.
PROBES = {
    "probe.sim.event_ns": sim_event_ns,
    "probe.sim.timer_rearm_ns": sim_timer_rearm_ns,
    "probe.transport.flow_pkt_ns": transport_flow_pkt_ns,
    "probe.net.packet.alloc_ns": net_packet_alloc_ns,
    "probe.stats.sketch_add_ns": stats_sketch_add_ns,
    "probe.service.arrival_ns": service_arrival_ns,
}
