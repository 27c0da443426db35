"""The emulated testbed of the §7.3-§7.4 experiments, as a scenario.

The paper's testbed: 9-10 servers on a 40 GbE Tomahawk ToR (16 MB
shared buffer, dynamic allocation giving a single busy port up to
~1.8 MB), color-aware dropping threshold 270 kB (≈ testbed BDP), DCTCP
ECN marking at 200 kB. We reproduce that as a star topology whose
per-port buffer share (375 kB x 10 ports, α=1) yields the same ~1.8 MB
single-port ceiling.

:func:`paper_testbed` says only what differs from a fabric scenario: one
switch, 2 µs links and K = 270 kB. ECN K = 200 kB, 375 kB per port,
α = 1, INT for HPCC and the 8 µs base RTT are what
:func:`~repro.experiments.scenarios.build_network` and
:func:`~repro.experiments.scenarios.make_transport_config` derive for it.
The testbed figures pair it with an application workload in their grids.
"""

from __future__ import annotations

from repro.experiments.scale import Scale
from repro.experiments.scenarios import ScenarioConfig
from repro.sim.units import KB, MICROS


def paper_testbed(hosts: int = 10, **fields) -> ScenarioConfig:
    """``hosts`` servers on the testbed ToR; ``fields`` are the point's own
    (transport, tlt, seed, recovery, admission, ...)."""
    scale = Scale("testbed", num_spines=0, num_tors=1, hosts_per_tor=hosts,
                  bg_flows=0, incast_events=0, incast_flows_per_sender=0)
    return ScenarioConfig(topology="star", scale=scale, link_delay_ns=2 * MICROS,
                          color_threshold_bytes=270 * KB, **fields)
