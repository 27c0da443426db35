#!/usr/bin/env python
"""Build a scenario directly against the library API.

Shows the lower-level building blocks (topology, switch features,
transports, TLT attachment) without the experiment harness: a dumbbell
network where an incast toward one right-side host HoL-blocks a victim
flow under PFC, and how TLT relieves it. Run:

    python examples/custom_scenario.py
"""

from repro.core.config import TltConfig
from repro.net.topology import TopologyParams, dumbbell
from repro.sim.units import GBPS, KB, MICROS
from repro.switchsim.ecn import StepEcn
from repro.switchsim.pfc import PfcConfig
from repro.switchsim.switch import SwitchConfig
from repro.transport.base import FlowSpec, TransportConfig
from repro.transport.registry import create_flow


def run(tlt: bool) -> None:
    switch_config = SwitchConfig(
        buffer_bytes=2_000 * KB,
        color_threshold_bytes=270 * KB if tlt else None,
        ecn=StepEcn(200 * KB),
        pfc=PfcConfig(enabled=True),
    )
    params = TopologyParams(
        link_rate_bps=40 * GBPS,
        link_delay_ns=2 * MICROS,
        switch_config=switch_config,
    )
    # 7 senders on the left, 2 receivers on the right (testbed §7.4).
    net = dumbbell(left_hosts=7, right_hosts=2, params=params)
    tconfig = TransportConfig(base_rtt_ns=12 * MICROS)
    tlt_config = TltConfig() if tlt else None

    # Six senders blast 100 x 32 kB foreground flows at right host 7.
    for src in range(6):
        for i in range(100):
            spec = FlowSpec(
                flow_id=net.new_flow_id(), src=src, dst=7, size=32 * KB, group="fg"
            )
            create_flow("dctcp", net, spec, tconfig, tlt_config)
    # The seventh sender runs a long background flow to right host 8 —
    # the HoL-blocking victim when PFC pauses the shared trunk.
    victim = FlowSpec(flow_id=net.new_flow_id(), src=6, dst=8, size=8_000 * KB, group="bg")
    create_flow("dctcp", net, victim, tconfig, tlt_config)

    net.engine.run(until=2_000_000_000)
    stats = net.stats
    record = stats.flows[victim.flow_id]
    goodput = record.size * 8 / record.fct_ns if record.fct_ns else 0.0
    label = "DCTCP+TLT" if tlt else "DCTCP    "
    print(
        f"{label}  fg p99 = {stats.fct_summary('fg')['p99'] / 1e6:6.3f} ms   "
        f"victim goodput = {goodput:5.2f} Gbps   "
        f"PAUSE frames = {stats.pause_frames:5d}   "
        f"paused time = {net.total_paused_ns() / 1e6:6.2f} ms"
    )


def main() -> None:
    print("Dumbbell + PFC: incast HoL-blocks an innocent victim flow\n")
    run(tlt=False)
    run(tlt=True)
    print("\nTLT sheds red packets before PFC triggers, so the victim is")
    print("paused far less while the incast's tail stays timeout-free.")


if __name__ == "__main__":
    main()
