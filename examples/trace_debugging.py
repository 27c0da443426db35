#!/usr/bin/env python
"""Debugging tools: packet tracing and terminal CDFs.

Follows one TLT flow through the fabric with :class:`PacketTracer`
(watch the Important Data / Important Echo ping-pong) and renders the
flow-completion-time CDF of an incast as an ASCII chart. Run:

    python examples/trace_debugging.py
"""

from repro.core.config import TltConfig
from repro.net.topology import TopologyParams, star
from repro.sim.trace import PacketTracer
from repro.stats.ascii import ascii_cdf
from repro.switchsim.switch import SwitchConfig
from repro.transport.base import FlowSpec, TransportConfig
from repro.transport.registry import create_flow


def main() -> None:
    params = TopologyParams(
        link_delay_ns=1_000,
        switch_config=SwitchConfig(buffer_bytes=500_000, color_threshold_bytes=100_000),
    )
    net = star(num_hosts=9, params=params)
    config = TransportConfig(base_rtt_ns=4_000)

    # The flow we want to watch.
    watched = FlowSpec(flow_id=net.new_flow_id(), src=1, dst=0, size=8_000, group="fg")
    tracer = PacketTracer(net, flow_ids={watched.flow_id})
    create_flow("dctcp", net, watched, config, TltConfig())

    # Background incast pressure from the other hosts.
    for src in range(2, 9):
        for _ in range(4):
            spec = FlowSpec(flow_id=net.new_flow_id(), src=src, dst=0,
                            size=32_000, group="fg")
            create_flow("dctcp", net, spec, config, TltConfig())

    net.engine.run(until=2_000_000_000)
    tracer.detach()

    print("First 14 events of the watched flow (note the IMPORTANT_DATA")
    print("tail of the initial window and its IMPORTANT_ECHO):\n")
    for event in tracer.events[:14]:
        print(event.format())

    fcts = [r.fct_ns / 1e6 for r in net.stats.flows.values() if r.fct_ns is not None]
    print()
    print(ascii_cdf(fcts, label="Incast FCT CDF (ms):", unit=" ms"))
    print(f"\ntimeouts: {net.stats.timeouts}, red drops: {net.stats.drops_red}, "
          f"green drops: {net.stats.drops_green}")


if __name__ == "__main__":
    main()
