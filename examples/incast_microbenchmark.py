#!/usr/bin/env python
"""Testbed-style incast microbenchmark (§7.4, Fig 14).

A client fetches 32 kB blobs from 8 servers with growing fan-in and
three recovery schemes: the 4 ms RTO_min default, an aggressive 200 µs
RTO_min, and TLT. Run:

    python examples/incast_microbenchmark.py
"""

from repro.experiments.common import run_grid
from repro.experiments.fig14_incast_microbench import (
    SCHEMES,
    IncastGets,
    incast_metrics,
    scheme_config,
)


def main() -> None:
    # One grid: every (scheme, fan-in) point, 2 bursts each, seed 1.
    points = [(flows, scheme) for flows in (16, 64, 128) for scheme in SCHEMES]
    rows = run_grid([(scheme_config("dctcp", scheme), IncastGets(flows, runs=2))
                     for flows, scheme in points], (1,), incast_metrics)
    print(f"{'scheme':10s} {'flows':>6s} {'p99 (ms)':>10s} {'max (ms)':>10s} {'timeouts':>9s}")
    for (flows, scheme), row in zip(points, rows):
        print(
            f"{scheme:10s} {flows:6d} {row['p99_ms']:10.3f} "
            f"{row['max_ms']:10.3f} {row['timeouts']:9.0f}"
        )
        if scheme == SCHEMES[-1]:
            print()
    print("TLT sustains the largest fan-in with zero timeouts: the burst")
    print("sheds red packets early while every flow's green packet keeps")
    print("loss detection and ACK-clocking alive.")


if __name__ == "__main__":
    main()
