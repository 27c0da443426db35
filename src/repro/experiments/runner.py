"""CLI: regenerate any figure/table of the paper.

Usage::

    tlt-experiment list
    tlt-experiment fig05 --scale small
    tlt-experiment fig05 --scale small --seeds 5 --jobs 4
    tlt-experiment all --scale tiny --jobs 2 --csv out/

A registry module is ``run(scale, seeds=<its default>)`` returning rows,
or ``{part: rows}``, ``TABLES``: ``{part: (title, columns)}``, ``""``
naming the only table of a module that returns plain rows, and
``CLAIMS``, the paper's claims about them
(:func:`repro.experiments.common.check_claims`). The CLI prints every
table and the verdict of every claim under them and, with ``--csv DIR``,
writes all of each part's columns as ``DIR/<id>[_<part>].csv``.

``--jobs N`` fans all of an experiment's runs out over N worker
processes (results are bit-identical to a serial run), ``--seeds N``
averages seeds 1..N in place of the module's default seeds, and
completed runs are served from the on-disk result cache (disable with
``--no-cache``; see ``repro.experiments.cache``). Every experiment ends
with a footer line summarising its runs' manifests
(:mod:`repro.experiments.manifest`); ``--csv DIR`` also writes that
document, with a ``claims`` list of the verdicts, as
``DIR/<id>.manifest.json``, and ``--profile`` writes it
with a per-callback ``callbacks`` section as ``profile_<id>.json``
beside a cProfile ``profile_<id>.pstats``.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
import time
from typing import Dict, List

from repro.experiments import manifest, parallel
from repro.experiments.cache import code_version
from repro.experiments.common import check_claims, print_table
from repro.experiments.export import rows_to_csv, write_json
from repro.experiments.scenarios import UnsupportedModeError
from repro.sim.backend import set_attribution
from repro.spec import SpecError

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


def _callbacks(table: Dict, top: int = 25) -> Dict:
    """The ``callbacks`` section of ``profile_<id>.json``: the engine's
    per-callback attribution table, heaviest first, and the share of its
    time spent in link-delivery drains (one call delivers a whole burst)."""
    total_ns = sum(ns for _calls, ns in table.values())
    drain_ns = sum(ns for name, (_calls, ns) in table.items()
                   if name.rsplit(".", 1)[-1] in ("_drain", "drain"))
    rows = sorted(table.items(), key=lambda item: item[1][1], reverse=True)
    return {
        "events": sum(calls for calls, _ns in table.values()),
        "drain_share": round(drain_ns / total_ns, 4) if total_ns else 0.0,
        "rows": [{"callback": name, "calls": calls, "total_ms": round(ns / 1e6, 3)}
                 for name, (calls, ns) in rows[:top]],
    }


def _footer(doc: Dict) -> str:
    """The line an experiment ends with, from its manifest document."""
    runs = f"{doc['runs']} run{'s' * (doc['runs'] != 1)} ({doc['cached_runs']} cached)"
    retries = f", {doc['retries']} retried" if doc["retries"] else ""
    return (f"[{doc['experiment']}: {runs}, {doc['backend']}, {doc['events']:,} events, "
            f"{doc['events_per_s']:,} ev/s, {doc['wall_s']:.1f} s sim wall, "
            f"{doc['elapsed_s']:.1f} s elapsed at --jobs {doc['jobs']}{retries}, "
            f"peak {doc['peak_rss_mb']:.0f} MB, {doc['code']}]")


def _run_one(name: str, args) -> None:
    module = importlib.import_module(EXPERIMENTS[name])
    manifest.LOG.clear()

    def execute() -> List[Dict]:
        seeds = {"seeds": tuple(range(1, args.seeds + 1))} if args.seeds else {}
        result = module.run(args.scale, **seeds)
        parts = result if isinstance(result, dict) else {"": result}
        for part, (title, columns) in module.TABLES.items():
            print_table(parts[part], columns, title)
            if args.csv:
                suffix = f"_{part}" if part else ""
                print("wrote", rows_to_csv(parts[part], f"{args.csv}/{name}{suffix}.csv"))
        claims = check_claims(module, result)
        if claims:
            print_table(claims, ["claim", "verdict", "measured", "paper"],
                        f"{name}: the paper's claims")
        return claims

    table: Dict = {}
    started = time.perf_counter()
    if args.profile:
        import cProfile

        profile = cProfile.Profile()
        set_attribution(table)
        try:
            claims = profile.runcall(execute)
        finally:
            set_attribution(None)
    else:
        claims = execute()
    doc = {**manifest.summarize(name, manifest.LOG, code_version(),
                                time.perf_counter() - started, parallel.get_context().jobs),
           "claims": claims}
    if args.profile:
        base = os.path.join(args.profile_dir, f"profile_{name}")
        print("wrote", write_json({**doc, "callbacks": _callbacks(table)}, f"{base}.json"))
        profile.dump_stats(f"{base}.pstats")
        print(f"wrote {base}.pstats")
    if args.csv:
        print("wrote", write_json(doc, f"{args.csv}/{name}.manifest.json"))
    print(_footer(doc) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tlt-experiment",
        description="Regenerate the paper's evaluation figures/tables.",
    )
    parser.add_argument("experiment",
                        help="experiment id (e.g. fig05), 'all' or 'list'")
    parser.add_argument("--scale", default="small",
                        help="tiny | small | medium | paper (default: small)")
    parser.add_argument("--seeds", type=int, default=None, metavar="N",
                        help="average every row over seeds 1..N (default: the "
                             "module's own seeds, 1 for the paper's figures)")
    parser.add_argument("--jobs", "-j", type=int, default=None, metavar="N",
                        help="run up to N of an experiment's (scenario, seed) runs "
                             "at a time in worker processes; a module hands all "
                             "the runs of a table to the job runner in one call "
                             "(default: $TLT_JOBS or 1)")
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
                             "profile_<id>.pstats and profile_<id>.json (the "
                             "experiment's manifest document plus a callbacks "
                             "section; forces --jobs 1 and --no-cache so the "
                             "work actually happens in this process)")
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
                        help="save a mid-run checkpoint of every service run "
                             "into DIR at the arrival-span midpoint (resume with "
                             "repro.service.resume_service); with a non-service "
                             "run, --telemetry, --faults or the compiled backend "
                             "refused before any run; excluded from cache keys, "
                             "so combine with --no-cache to force execution")
    parser.add_argument("--shards", type=int, default=None, metavar="N",
                        help="split every run across N shard worker processes "
                             "synchronized by conservative lookahead (bit-identical "
                             "by contract; excluded from cache keys, so combine "
                             "with --no-cache; orthogonal to --jobs); N > 1 with "
                             "a service, a custom workload, a topology other than "
                             "leaf_spine or adaptive-k admission is refused "
                             "before any run")
    parser.add_argument("--csv", default=None, metavar="DIR",
                        help="also write the result rows as CSV files, and the "
                             "experiment's manifest document as "
                             "<id>.manifest.json, into DIR")
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

    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {unknown}; try 'list'", file=sys.stderr)
        return 2

    for name in names:
        try:
            _run_one(name, args)
        except (UnsupportedModeError, SpecError) as exc:  # refused before any run
            print(f"{name}: {exc}", file=sys.stderr)
            return 2

    if args.telemetry:
        # Deterministic merge of per-worker streams by (seed, sim time).
        from repro.telemetry import merge_streams

        merged, count = merge_streams(args.telemetry)
        if merged:
            print(f"merged {count} telemetry records -> {merged}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
