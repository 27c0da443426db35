"""CLI: regenerate any figure/table of the paper.

Usage::

    tlt-experiment list
    tlt-experiment fig05 --scale small
    tlt-experiment fig05 --scale small --seeds 5 --jobs 4
    tlt-experiment all --scale tiny --jobs 2
    tlt-experiment bench-report --scale tiny --out BENCH_tiny.json

``--jobs N`` fans seeded runs out over N worker processes (results are
bit-identical to a serial run), ``--seeds N`` averages seeds 1..N on
modules that support seed averaging, and completed runs are served
from the on-disk result cache (disable with ``--no-cache``; see
``repro.experiments.cache``). ``bench-report`` times every experiment
and writes a machine-readable ``BENCH_*.json`` with wall time and
simulated events/sec — the input of ``tools/check_bench_regression.py``.
``--profile`` wraps a run in :class:`repro.sim.profiler.Profiler` and
writes ``profile_<id>.pstats`` + ``profile_<id>.json``.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import os
import platform
import sys
import time
from typing import Dict, List

from repro.experiments import parallel, perf
from repro.experiments.export import rows_to_csv, write_json
from repro.version import __version__

EXPERIMENTS: Dict[str, str] = {
    "fig01": "repro.experiments.fig01_rto_cdf",
    "fig02": "repro.experiments.fig02_fixed_rto",
    "fig05": "repro.experiments.fig05_tcp_family",
    "fig06": "repro.experiments.fig06_roce_family",
    "fig07": "repro.experiments.fig07_timeouts_pauses",
    "fig08": "repro.experiments.fig08_threshold_sweep",
    "fig09": "repro.experiments.fig09_load_sweep",
    "fig10": "repro.experiments.fig10_fg_share",
    "fig11": "repro.experiments.fig11_queue_behavior",
    "fig12": "repro.experiments.fig12_redis_incast",
    "fig13": "repro.experiments.fig13_mixed_traffic",
    "fig14": "repro.experiments.fig14_incast_microbench",
    "fig15": "repro.experiments.fig15_workloads",
    "fig16": "repro.experiments.fig16_delivery_cdf",
    "fig17": "repro.experiments.fig17_clocking_ablation",
    "fig18": "repro.experiments.fig18_incast_degree",
    "table1": "repro.experiments.table1_important_loss",
    # Extensions beyond the paper's evaluation section.
    "ext-incremental": "repro.experiments.ext_incremental",
    "ext-periodic-n": "repro.experiments.ext_periodic_n",
    "ext-corruption": "repro.experiments.ext_corruption",
    "ext-faults": "repro.experiments.ext_faults",
    "ext-multipath": "repro.experiments.ext_multipath",
    "ext-policies": "repro.experiments.ext_policies",
    "ext-shard-scale": "repro.experiments.ext_shard_scale",
    "service-slo": "repro.experiments.service_slo",
}


def _call_run(module, scale: str, seeds_n: int):
    """Invoke ``module.run`` with seeds 1..N when the module supports it."""
    kwargs = {"scale": scale}
    if seeds_n > 1:
        parameters = inspect.signature(module.run).parameters
        if "seeds" in parameters:
            kwargs["seeds"] = tuple(range(1, seeds_n + 1))
        else:
            print(f"note: {module.__name__} runs single-seed; --seeds ignored",
                  file=sys.stderr)
    return module.run(**kwargs)


def _print_rows(module, result) -> None:
    """Generic table print for the --seeds path (module.main only takes
    a scale, so curated printing is bypassed when seeds are requested)."""
    from repro.experiments.common import print_table

    parts = result if isinstance(result, dict) else {"": result}
    for part, rows in parts.items():
        if not rows:
            continue
        columns = getattr(module, "COLUMNS", None)
        if not columns or any(c not in rows[0] for c in columns):
            columns = list(rows[0].keys())
        print_table(rows, columns, part)


def _run_one(name: str, args) -> None:
    module = importlib.import_module(EXPERIMENTS[name])
    started = time.time()

    def execute() -> None:
        if args.csv or (args.seeds or 1) > 1:
            result = _call_run(module, args.scale, args.seeds or 1)
            if args.csv:
                parts = result if isinstance(result, dict) else {None: result}
                for part, rows in parts.items():
                    suffix = f"_{part}" if part else ""
                    path = rows_to_csv(rows, f"{args.csv}/{name}{suffix}.csv")
                    print(f"wrote {path}")
            else:
                _print_rows(module, result)
        else:
            module.main(scale=args.scale)

    if args.profile:
        from repro.sim.profiler import Profiler

        with Profiler(tag=name, out_dir=args.profile_dir) as profiler:
            execute()
        print(f"wrote {profiler.pstats_path}")
        print(f"wrote {profiler.json_path}")
    else:
        execute()
    print(f"[{name} completed in {time.time() - started:.1f}s]\n")


def _bench_report(names: List[str], args) -> int:
    """Time every experiment; write wall time + events/sec as JSON."""
    from repro.sim import backend as backend_mod

    # Resolve once: the whole report runs under one backend, and the
    # regression gate keys its baseline on this name.
    active_backend = backend_mod.current_backend()
    report = {
        "schema": 1,
        "scale": args.scale,
        "jobs": parallel.get_context().jobs,
        "python": platform.python_version(),
        "version": __version__,
        "backend": active_backend,
        "experiments": {},
    }
    total_wall = 0.0
    for name in names:
        module = importlib.import_module(EXPERIMENTS[name])
        perf.TALLY.reset()
        started = time.perf_counter()
        _call_run(module, args.scale, args.seeds or 1)
        wall_s = time.perf_counter() - started
        total_wall += wall_s
        snap = perf.TALLY.snapshot()
        rate = snap["events"] / snap["wall_s"] if snap["wall_s"] > 0 else None
        report["experiments"][name] = {
            "wall_s": round(wall_s, 3),
            "sim_events": snap["events"],
            "sim_wall_s": round(snap["wall_s"], 3),
            "runs": snap["runs"],
            "cached_runs": snap["cached_runs"],
            "events_per_sec": round(rate) if rate else None,
            "backend": active_backend,
        }
        shown = f"{round(rate):,} events/s" if rate else "cached/no sim"
        print(f"{name:16s} {active_backend:9s} {wall_s:8.1f}s  {shown}")
    report["total_wall_s"] = round(total_wall, 3)
    path = write_json(report, args.out or f"BENCH_{args.scale}.json")
    print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tlt-experiment",
        description="Regenerate the paper's evaluation figures/tables.",
    )
    parser.add_argument("experiment",
                        help="experiment id (e.g. fig05), 'all', 'list' or 'bench-report'")
    parser.add_argument("--scale", default="small",
                        help="tiny | small | medium | paper (default: small)")
    parser.add_argument("--seeds", type=int, default=None, metavar="N",
                        help="average seeds 1..N on modules that support it (default: 1)")
    parser.add_argument("--jobs", "-j", type=int, default=None, metavar="N",
                        help="run up to N (scenario, seed) jobs in parallel worker "
                             "processes (default: $TLT_JOBS or 1)")
    parser.add_argument("--no-cache", action="store_true",
                        help="always execute; do not read or write the result cache")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="result cache location (default: $TLT_CACHE_DIR or "
                             "~/.cache/tlt-repro)")
    parser.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                        help="kill+retry a single run after this many seconds "
                             "(forces worker processes)")
    parser.add_argument("--profile", action="store_true",
                        help="profile the run: wraps it in cProfile + the "
                             "engine's per-callback attribution and writes "
                             "profile_<id>.pstats and profile_<id>.json "
                             "(forces --jobs 1 and --no-cache so the work "
                             "actually happens in this process)")
    parser.add_argument("--profile-dir", default=".", metavar="DIR",
                        help="directory for --profile output files (default: .)")
    parser.add_argument("--audit", action="store_true",
                        help="run with the runtime invariant auditor attached "
                             "(raises AuditError with a trace dump on any "
                             "violated simulation invariant)")
    parser.add_argument("--faults", default=None, metavar="SPEC.JSON",
                        help="inject a fault schedule (corruption, link flaps, "
                             "switch failure, PFC storms; see repro.faults) "
                             "into every run of the sweep")
    parser.add_argument("--telemetry", default=None, metavar="OUTDIR",
                        help="attach the telemetry subsystem to every run: "
                             "streaming JSONL samples, Prometheus exposition, "
                             "an ASCII run report and flight-recorder dumps "
                             "into OUTDIR; per-worker streams are merged into "
                             "OUTDIR/merged.jsonl after the sweep (cached "
                             "runs are not re-simulated and emit no "
                             "telemetry — combine with --no-cache for fresh "
                             "streams)")
    parser.add_argument("--checkpoint", default=None, metavar="DIR",
                        help="service runs only: save a mid-run simulation "
                             "checkpoint into DIR at the arrival-span "
                             "midpoint (pure backend; resume with "
                             "repro.service.resume_service; excluded from "
                             "cache keys like --telemetry/--shards, so "
                             "combine with --no-cache to force execution)")
    parser.add_argument("--shards", type=int, default=None, metavar="N",
                        help="split every leaf-spine run across N shard worker "
                             "processes synchronized by conservative lookahead "
                             "(bit-identical results by contract; excluded from "
                             "cache keys, so combine with --no-cache to force "
                             "sharded execution; orthogonal to --jobs, which "
                             "parallelizes across runs)")
    parser.add_argument("--csv", default=None, metavar="DIR",
                        help="also write the result rows as CSV files into DIR")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="bench-report output path (default: BENCH_<scale>.json)")
    parser.add_argument("--only", default=None, metavar="IDS",
                        help="bench-report: comma-separated subset of experiments")
    args = parser.parse_args(argv)

    if args.experiment == "list":
        for name, module in EXPERIMENTS.items():
            print(f"{name:8s} {module}")
        return 0

    if args.seeds is not None and args.seeds < 1:
        print("--seeds must be >= 1", file=sys.stderr)
        return 2

    # Run control travels through the environment, so that pool workers
    # (fork or spawn) and the figure modules, which build their own
    # configs, see it; scenarios.run_control is where it is read, and
    # docs/API.md ("Run control") says which of it is in cache keys.
    if args.audit:
        os.environ["TLT_AUDIT"] = "1"
    if args.faults:
        from repro.faults.schedule import FaultSchedule

        try:
            FaultSchedule.load(args.faults)  # fail fast on a bad spec
        except (OSError, ValueError, KeyError) as exc:
            print(f"--faults {args.faults}: {exc}", file=sys.stderr)
            return 2
        os.environ["TLT_FAULTS"] = os.path.abspath(args.faults)
    if args.telemetry:
        os.environ["TLT_TELEMETRY"] = os.path.abspath(args.telemetry)
    if args.checkpoint:
        os.environ["TLT_CHECKPOINT"] = os.path.abspath(args.checkpoint)
    if args.shards is not None:
        if args.shards < 1:
            print("--shards must be >= 1", file=sys.stderr)
            return 2
        os.environ["TLT_SHARDS"] = str(args.shards)

    if args.profile:
        # Worker processes would escape the profiler, and cache hits
        # would leave it nothing to measure.
        args.jobs = 1
        args.no_cache = True

    parallel.configure(
        jobs=args.jobs,
        use_cache=False if args.no_cache else None,
        cache_dir=args.cache_dir,
        timeout_s=args.timeout,
    )

    if args.experiment == "bench-report":
        names = args.only.split(",") if args.only else list(EXPERIMENTS)
        unknown = [n for n in names if n not in EXPERIMENTS]
        if unknown:
            print(f"unknown experiment(s): {unknown}; try 'list'", file=sys.stderr)
            return 2
        return _bench_report(names, args)

    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {unknown}; try 'list'", file=sys.stderr)
        return 2

    for name in names:
        _run_one(name, args)

    if args.telemetry:
        # Deterministic merge of per-worker streams by (seed, sim time).
        from repro.telemetry import merge_streams

        merged, count = merge_streams(args.telemetry)
        if merged:
            print(f"merged {count} telemetry records -> {merged}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
