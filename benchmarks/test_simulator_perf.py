"""Micro-benchmarks of the simulator itself (not a paper figure).

Tracks the engine's raw event throughput and the end-to-end packet
forwarding rate, so performance regressions in the hot paths show up
in the benchmark report alongside the figure regenerations.

Each test records its engine-event count via ``record_events`` so
``--benchmark-json`` reports carry events/sec; CI gates these against
``BENCH_baseline.json`` with ``tools/check_bench_regression.py``.
"""

from repro.net.topology import TopologyParams, star
from repro.sim.backend import create_engine
from repro.switchsim.switch import SwitchConfig
from repro.transport.base import FlowSpec, TransportConfig
from repro.transport.registry import create_flow


def _star(num_hosts=4, **switch_kwargs):
    switch_kwargs.setdefault("buffer_bytes", 1_000_000)
    params = TopologyParams(
        switch_config=SwitchConfig(**switch_kwargs),
        link_delay_ns=1_000,
    )
    return star(num_hosts=num_hosts, params=params)


def test_engine_event_throughput(benchmark, record_events):
    def run_events():
        engine = create_engine()

        def chain(n):
            if n:
                engine.schedule(1, chain, n - 1)

        engine.schedule(0, chain, 100_000)
        engine.run()
        return engine.events_processed

    events = benchmark(run_events)
    record_events(benchmark, events)
    assert events == 100_001


def test_flow_forwarding_rate(benchmark, record_events):
    """One 5 MB TCP flow across a star switch: ~7k packets round trip."""

    def run_flow_once():
        net = _star()
        spec = FlowSpec(flow_id=net.new_flow_id(), src=0, dst=1, size=5_000_000)
        create_flow("tcp", net, spec, TransportConfig(base_rtt_ns=4_000))
        net.engine.run()
        assert net.stats.flows[spec.flow_id].completed
        return net.engine.events_processed

    events = benchmark(run_flow_once)
    record_events(benchmark, events)
    assert events > 10_000


def test_incast_simulation_rate(benchmark, record_events):
    """An 8-to-1 DCTCP incast with TLT — the common experiment kernel."""
    from repro.core.config import TltConfig

    def run_incast():
        net = _star(num_hosts=9, color_threshold_bytes=100_000)
        config = TransportConfig(base_rtt_ns=4_000)
        for src in range(1, 9):
            spec = FlowSpec(flow_id=net.new_flow_id(), src=src, dst=0, size=128_000)
            create_flow("dctcp", net, spec, config, TltConfig())
        net.engine.run(until=5_000_000_000)
        assert net.stats.incomplete_flows() == 0
        return net.engine.events_processed

    events = benchmark(run_incast)
    record_events(benchmark, events)


def test_timer_churn_throughput(benchmark, record_events):
    """Chained events that each re-arm a coarse timer — the RTO pattern
    (schedule, then cancel-and-reschedule on every ACK). Exercises the
    timer wheel's O(1) cancel/re-add path; before the wheel, every
    re-arm left a dead entry in the heap."""

    def run_churn():
        engine = create_engine()
        state = {"timer": None, "fired": 0}

        def on_timeout():
            state["fired"] += 1

        def chain(n):
            if state["timer"] is not None:
                state["timer"].cancel()
            state["timer"] = engine.schedule_timer(1_000_000, on_timeout)
            if n:
                engine.schedule(100, chain, n - 1)

        engine.schedule(0, chain, 50_000)
        engine.run()
        # Every re-arm cancelled its predecessor; only the last fires.
        assert state["fired"] == 1
        return engine.events_processed

    events = benchmark(run_churn)
    record_events(benchmark, events)
    assert events == 50_002


def test_packet_alloc_churn(benchmark, record_events):
    """Many small flows through one switch: allocation-dominated — every
    data packet and ACK goes through the free-list packet pool, and the
    segment scoreboards churn. Catches regressions in alloc/recycle."""

    def run_flows():
        net = _star(num_hosts=5)
        config = TransportConfig(base_rtt_ns=4_000)
        for i in range(48):
            spec = FlowSpec(
                flow_id=net.new_flow_id(), src=i % 4 + 1, dst=0, size=16_000
            )
            create_flow("tcp", net, spec, config)
        net.engine.run(until=2_000_000_000)
        assert net.stats.incomplete_flows() == 0
        return net.engine.events_processed

    events = benchmark(run_flows)
    record_events(benchmark, events)


def test_flow_lifecycle_rate(benchmark, record_events):
    """Create -> complete -> release of short flows, as a service run
    pays it: 4 000 one-segment DCTCP+TLT flows arrive open-loop on a
    2-host star, each created at its arrival. A finished sender leaves
    its host's demux table (the receiver stays), so the senders
    registered at any moment are bounded by the flows in flight, not by
    the flows run; ``extra_info["flows_per_sec"]`` is the lifecycle rate."""
    from repro.core.config import TltConfig

    flows, spacing_ns = 4_000, 500

    def run_flows():
        net = _star(num_hosts=2)
        engine = net.engine
        config = TransportConfig(base_rtt_ns=4_000)
        tlt = TltConfig()
        peak_senders = 0

        def arrive(flow_id):
            nonlocal peak_senders
            spec = FlowSpec(flow_id, flow_id % 2, (flow_id + 1) % 2, 1_000, start_ns=engine.now)
            create_flow("dctcp", net, spec, config, tlt)
            # One receiver per flow created so far; the rest are senders.
            senders = sum(len(host.endpoints) for host in net.hosts) - (flow_id + 1)
            peak_senders = max(peak_senders, senders)
            if flow_id + 1 < flows:
                engine.schedule(spacing_ns, arrive, flow_id + 1)

        engine.schedule(0, arrive, 0)
        engine.run()
        assert net.stats.incomplete_flows() == 0
        assert sum(len(host.endpoints) for host in net.hosts) == flows
        assert peak_senders <= 32, peak_senders
        return engine.events_processed

    events = benchmark(run_flows)
    record_events(benchmark, events)
    if benchmark.stats is not None:  # None under --benchmark-disable
        benchmark.extra_info["flows_per_sec"] = round(flows / benchmark.stats.stats.min)
