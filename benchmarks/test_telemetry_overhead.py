"""Telemetry overhead benchmark: off vs sampling at 10 µs cadence.

Two runs of the same incast kernel as
``test_simulator_perf.test_incast_simulation_rate``:

- **off**: no telemetry attached — the zero-cost disabled path the
  acceptance criteria gate (< 2% vs baseline; the only residual cost is
  the ``stats.on_rto_fire is not None`` check off the hot path);
- **10 µs**: a full :class:`repro.telemetry.Telemetry` attachment
  (every sampler + streaming JSONL, then the end-of-run report and
  ``.prom`` snapshot) at an aggressive 10 µs cadence —
  the price of watching a run, reported side by side so regressions in
  sampler cost show up in CI's benchmark artifact.

Both are rate-gated against ``BENCH_baseline.json`` via
``tools/check_bench_regression.py`` like every other simulator
benchmark.
"""

from repro.core.config import TltConfig
from repro.net.topology import TopologyParams, star
from repro.switchsim.switch import SwitchConfig
from repro.transport.base import FlowSpec, TransportConfig
from repro.transport.registry import create_flow


def _incast_net():
    params = TopologyParams(
        switch_config=SwitchConfig(buffer_bytes=1_000_000,
                                   color_threshold_bytes=100_000),
        link_delay_ns=1_000,
    )
    net = star(num_hosts=9, params=params)
    config = TransportConfig(base_rtt_ns=4_000)
    for src in range(1, 9):
        spec = FlowSpec(flow_id=net.new_flow_id(), src=src, dst=0, size=128_000)
        create_flow("dctcp", net, spec, config, TltConfig())
    return net


def test_incast_telemetry_off(benchmark, record_events):
    """The incast kernel with telemetry disabled (nothing installed)."""

    def run_incast():
        net = _incast_net()
        net.engine.run(until=5_000_000_000)
        assert net.stats.incomplete_flows() == 0
        return net.engine.events_processed

    events = benchmark(run_incast)
    record_events(benchmark, events)


def test_incast_telemetry_10us(benchmark, record_events, tmp_path):
    """The same kernel with every sampler armed at 10 µs, JSONL, report and .prom."""
    from repro.telemetry import Telemetry, TelemetryConfig

    config = TelemetryConfig(out_dir=str(tmp_path), interval_ns=10_000)

    def run_incast():
        net = _incast_net()
        telemetry = Telemetry(net, config).install()
        net.engine.run(until=5_000_000_000)
        assert net.stats.incomplete_flows() == 0
        summary = telemetry.finalize()
        assert summary["emitted"] > 0
        return net.engine.events_processed

    events = benchmark(run_incast)
    record_events(benchmark, events)
