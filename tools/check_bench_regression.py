#!/usr/bin/env python3
"""Benchmark regression gate for CI.

Compares a benchmark run against a committed baseline and exits
non-zero when any benchmark's throughput (events/sec) dropped by more
than ``--threshold`` (default 25%).

Baselines are **per backend**: the pure-Python and compiled hot-path
kernels (see ``repro.sim.backend``) have wildly different absolute
rates, so one flat baseline would either never gate the compiled
backend or always fail the pure one. The baseline file keys rates by
backend name::

    {"schema": 2,
     "backends": {"pure":     {"source": ..., "benchmarks": {...}},
                  "compiled": {"source": ..., "benchmarks": {...}}}}

The run's backend is auto-detected — pytest-benchmark reports carry
``extra_info["backend"]`` (stamped by ``benchmarks/conftest.py``) — and
can be overridden with ``--backend``; a run without the annotation is
treated as ``pure``. A *known* backend (pure/compiled) with no baseline
entry is a hard error — a gate without a baseline is no gate — while an
unknown/experimental backend name is reported ungated, like a freshly
added benchmark.

The run is pytest-benchmark ``--benchmark-json`` output, what CI gives
the gate: throughput is ``extra_info["events"] / stats.min`` when the
benchmark recorded an event count (see
``benchmarks/conftest.py:record_events``), else ``1 / stats.min``
(runs/sec). The fastest round is used rather than the mean: scheduling
noise and CPU steal on shared runners only ever add time, so the
minimum is the stablest estimate of the code's true cost (and what the
stdlib ``timeit`` docs recommend comparing). Any other file, run or
baseline, is a ``ValueError``.

Usage::

    python tools/check_bench_regression.py bench.json BENCH_baseline.json
    python tools/check_bench_regression.py bench.json BENCH_baseline.json --update

``--update``/``--write-baseline`` record the run under its backend's
key and preserve every other backend's entry, so refreshing the
compiled numbers never touches the pure ones. Baselines are
machine-dependent: refresh with ``--update`` (run on the reference
machine / CI runner class) whenever the simulator's expected
performance legitimately changes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, Optional, Tuple

BASELINE_SCHEMA = 2

#: Backends the gate insists on having a baseline for. Anything else is
#: reported ungated (same treatment as a brand-new benchmark).
KNOWN_BACKENDS = ("pure", "compiled")


def _read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if not isinstance(document, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return document


def load_run(path: str) -> Tuple[Dict[str, float], Optional[str]]:
    """Normalize a pytest-benchmark report to ``({name: events_per_sec},
    backend)``.

    ``backend`` is ``None`` when the report carries no annotation (or
    disagrees with itself).
    """
    document = _read_json(path)
    if not isinstance(document.get("benchmarks"), list):
        raise ValueError(f"{path}: unrecognized benchmark report format")
    rates: Dict[str, float] = {}
    tags = set()
    for bench in document["benchmarks"]:
        stats = bench["stats"]
        # Fastest round: noise on a shared runner is strictly
        # additive, so min is the stablest estimate of true cost.
        best = stats.get("min") or stats["mean"]
        if best <= 0:
            continue
        extra = bench.get("extra_info") or {}
        events = extra.get("events")
        rates[bench["name"]] = (float(events) if events else 1.0) / best
        tags.add(extra.get("backend"))
    return rates, tags.pop() if len(tags) == 1 else None


def load_rates(path: str) -> Dict[str, float]:
    """Normalize a run report to {name: events_per_sec}."""
    return load_run(path)[0]


def _baseline_entries(path: str) -> Dict[str, dict]:
    """The ``"backends"`` table of a schema-2 baseline file."""
    document = _read_json(path)
    if not isinstance(document.get("backends"), dict):
        raise ValueError(f"{path}: unrecognized baseline format")
    return document["backends"]


def load_baseline(path: str) -> Dict[str, Dict[str, float]]:
    """Load a baseline file as ``{backend: {name: events_per_sec}}``."""
    return {
        backend: {name: float(value["events_per_sec"])
                  for name, value in (entry.get("benchmarks") or {}).items()
                  if value["events_per_sec"]}
        for backend, entry in _baseline_entries(path).items()
    }


def write_baseline(rates: Dict[str, float], path: str, source: str,
                   backend: str = "pure") -> None:
    """Record ``rates`` under ``backend``, preserving other backends."""
    backends = dict(_baseline_entries(path)) if os.path.exists(path) else {}
    backends[backend] = {
        "source": os.path.basename(source),
        "benchmarks": {
            name: {"events_per_sec": round(rate, 1)}
            for name, rate in sorted(rates.items())
        },
    }
    payload = {
        "schema": BASELINE_SCHEMA,
        "note": "events/sec per benchmark, keyed by hot-path backend; "
                "refresh one backend's numbers with "
                "tools/check_bench_regression.py <run> <this file> --update",
        "backends": backends,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def compare(current: Dict[str, float], baseline: Dict[str, float],
            threshold: float) -> int:
    """Print a comparison table; return the number of gate failures."""
    failures = 0
    width = max((len(n) for n in {*current, *baseline}), default=4)
    print(f"{'benchmark'.ljust(width)}  {'baseline':>12}  {'current':>12}  "
          f"{'ratio':>7}  verdict")
    for name in sorted(baseline):
        base_rate = baseline[name]
        if name not in current:
            failures += 1
            print(f"{name.ljust(width)}  {base_rate:12.0f}  {'MISSING':>12}  "
                  f"{'-':>7}  FAIL (benchmark disappeared)")
            continue
        rate = current[name]
        ratio = rate / base_rate
        if ratio < 1.0 - threshold:
            failures += 1
            verdict = f"FAIL (>{threshold:.0%} throughput drop)"
        elif ratio > 1.0 + threshold:
            verdict = "ok (improved — consider --update)"
        else:
            verdict = "ok"
        print(f"{name.ljust(width)}  {base_rate:12.0f}  {rate:12.0f}  "
              f"{ratio:6.2f}x  {verdict}")
    for name in sorted(set(current) - set(baseline)):
        print(f"{name.ljust(width)}  {'-':>12}  {current[name]:12.0f}  "
              f"{'-':>7}  new (not gated; --update to adopt)")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", help="benchmark run to check "
                        "(pytest-benchmark --benchmark-json output)")
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument("--threshold", type=float, default=0.25, metavar="FRAC",
                        help="max tolerated relative throughput drop (default 0.25)")
    parser.add_argument("--backend", default=None, metavar="NAME",
                        help="override the run's backend (default: auto-detect "
                             "from the report, falling back to 'pure')")
    parser.add_argument("--update", action="store_true",
                        help="rewrite this backend's entry in the baseline "
                             "from the current run (other backends' entries "
                             "are preserved) and exit")
    parser.add_argument("--write-baseline", action="store_true",
                        help="create the baseline from the current run when "
                             "none exists yet (refuses to overwrite; use "
                             "--update to refresh an existing baseline)")
    args = parser.parse_args(argv)

    if not os.path.exists(args.current):
        print(f"error: benchmark run {args.current} does not exist",
              file=sys.stderr)
        return 2
    current, detected = load_run(args.current)
    backend = args.backend or detected or "pure"
    if not current:
        print(f"error: no usable benchmarks in {args.current}", file=sys.stderr)
        return 2
    if args.write_baseline:
        if os.path.exists(args.baseline):
            print(f"error: {args.baseline} already exists; use --update to "
                  f"refresh it", file=sys.stderr)
            return 2
        write_baseline(current, args.baseline, source=args.current,
                       backend=backend)
        print(f"baseline created from {args.current} [{backend}]: "
              f"{len(current)} benchmarks -> {args.baseline}")
        return 0
    if args.update:
        write_baseline(current, args.baseline, source=args.current,
                       backend=backend)
        print(f"baseline updated from {args.current} [{backend}]: "
              f"{len(current)} benchmarks -> {args.baseline}")
        return 0

    # A gate without a baseline is no gate: silently passing here would
    # let CI report green while checking nothing.
    if not os.path.exists(args.baseline):
        print(f"error: baseline {args.baseline} does not exist; create it "
              f"from a trusted run with --write-baseline", file=sys.stderr)
        return 2
    tables = load_baseline(args.baseline)
    if backend not in tables:
        if backend in KNOWN_BACKENDS:
            print(f"error: baseline {args.baseline} has no entry for backend "
                  f"{backend!r}; record one from a trusted run with --update",
                  file=sys.stderr)
            return 2
        # An experimental backend name: report, don't gate.
        print(f"backend {backend!r} has no baseline (not gated; --update to adopt):")
        width = max((len(n) for n in current), default=4)
        for name in sorted(current):
            print(f"{name.ljust(width)}  {current[name]:12.0f}  new")
        return 0
    baseline = tables[backend]
    if not baseline:
        print(f"error: no usable benchmarks for backend {backend!r} in "
              f"baseline {args.baseline}; refresh it with --update",
              file=sys.stderr)
        return 2
    print(f"backend: {backend}")
    failures = compare(current, baseline, args.threshold)
    if failures:
        print(f"\n{failures} benchmark(s) regressed beyond "
              f"{args.threshold:.0%}", file=sys.stderr)
        return 1
    print("\nbenchmark gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
