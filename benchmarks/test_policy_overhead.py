"""What an admission-policy *decision* costs on the switch hot path.

The switch has one admission pipeline; ``SwitchConfig.admission``
selects only the decision inside it (one ``is None`` test per packet).
These benchmarks put the open-coded default decision
(``admission=None``) and the semantically identical policy object
(``admission="ch-static-k"``: ``color_threshold`` + ``admit``, two
method calls per packet) side by side on the same incast kernel as
``test_incast_simulation_rate`` — the default must stay within noise of
``BENCH_baseline.json``, and the explicit one documents what the
policy lab pays for asking an object. Everything after admission is the
same code for both.
"""

from repro.core.config import TltConfig
from repro.net.topology import TopologyParams, star
from repro.switchsim.switch import SwitchConfig
from repro.transport.base import FlowSpec, TransportConfig
from repro.transport.registry import create_flow


def _run_incast(admission):
    params = TopologyParams(
        switch_config=SwitchConfig(
            buffer_bytes=1_000_000,
            color_threshold_bytes=100_000,
            admission=admission,
        ),
        link_delay_ns=1_000,
    )
    net = star(num_hosts=9, params=params)
    config = TransportConfig(base_rtt_ns=4_000)
    for src in range(1, 9):
        spec = FlowSpec(flow_id=net.new_flow_id(), src=src, dst=0, size=128_000)
        create_flow("dctcp", net, spec, config, TltConfig())
    net.engine.run(until=5_000_000_000)
    assert net.stats.incomplete_flows() == 0
    return net.engine.events_processed


def test_default_policy_incast_rate(benchmark, record_events):
    """The production decision: open-coded Choudhury–Hahne + static-K."""
    events = benchmark(_run_incast, None)
    record_events(benchmark, events)


def test_explicit_policy_dispatch_incast_rate(benchmark, record_events):
    """The same math asked of the ``ChoudhuryHahne`` policy object."""
    events = benchmark(_run_incast, "ch-static-k")
    record_events(benchmark, events)
