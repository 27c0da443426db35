"""Scale presets.

Thresholds, link rates and delays always stay at paper values so the
queueing dynamics are authentic; a scale only shrinks the topology and
the flow population (CPython cannot push the paper's 10k-flow, 96-host
runs through a pure-Python simulator in benchmark time).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Scale:
    """Topology size and flow population for one experiment run."""

    name: str
    num_spines: int
    num_tors: int
    hosts_per_tor: int
    bg_flows: int
    incast_events: int
    incast_flows_per_sender: int

    @property
    def num_hosts(self) -> int:
        return self.num_tors * self.hosts_per_tor


#: Unit-test scale: seconds per run.
TINY = Scale("tiny", num_spines=1, num_tors=2, hosts_per_tor=3,
             bg_flows=20, incast_events=2, incast_flows_per_sender=2)

#: Benchmark scale (default): tens of seconds per run. The incast
#: degree is raised to 16 flows/sender (paper: 8) so the burst volume
#: relative to the receiver ToR's buffer matches the paper's 96-host
#: setup (6 MB burst vs ~2.2 MB dynamic cap there; ~1.9 MB vs ~1.1 MB
#: here) — see DESIGN.md's substitution notes.
SMALL = Scale("small", num_spines=2, num_tors=4, hosts_per_tor=4,
              bg_flows=60, incast_events=4, incast_flows_per_sender=16)

#: Larger sanity scale. Measured (2-core box, dctcp+TLT, seed 1): one
#: run is 7.6 M events, 15 s on the compiled backend and 33 s on pure,
#: about 100 MB peak RSS.
MEDIUM = Scale("medium", num_spines=2, num_tors=6, hosts_per_tor=6,
               bg_flows=400, incast_events=8, incast_flows_per_sender=4)

#: The paper's topology (96 hosts, 10k background flows): a dctcp+TLT run
#: measured 156.4 M events (peak 471 MB, 582 s on compiled).
PAPER = Scale("paper", num_spines=4, num_tors=12, hosts_per_tor=8,
              bg_flows=10_000, incast_events=50, incast_flows_per_sender=8)

SCALES = {s.name: s for s in (TINY, SMALL, MEDIUM, PAPER)}
