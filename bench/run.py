"""The repository's benchmark: one command, every metric by name.

    python bench/run.py [--workload W] [--seed N] [--seconds S] [--trace 0|1]
                        [--quick] [--out FILE]

Each workload is a scheme pair (``base`` = TLT off, ``tlt`` = TLT on)
run once per backend (``pure``, ``compiled``), each in a fresh child
process, one child at a time. ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer ones (see ``bench/README.md``).
The last line of standard output of each workload is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; everything above it
is for people. The exit code is 0 only when every run was measured;
``correct`` is false when a check on the simulated outputs failed.

Before measuring, the compiled kernel is rebuilt from this checkout's
``_ckernelmodule.c`` (the ``.so`` is git-ignored, so one left over from
another commit would otherwise be measured silently).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import spec  # noqa: E402 - needs the path above
from hostspeed import calibrate, slowness  # noqa: E402

CKERNEL_SOURCE = os.path.join(ROOT, "src", "repro", "sim", "_ckernelmodule.c")
#: Times set-up is repeated in an end-to-end run (``setup_s`` is the median).
SETUP_REPEATS = 3
#: The ``pure`` backend must be slower than ``compiled`` by this factor
#: (measured 1.6-2.1x), or ``cpu_s`` is not measuring the hot path.
SENSITIVITY_FLOOR = 1.2
#: Share of ``--seconds`` each timed child may measure for (``pure`` is
#: 1.6-2.1x slower, so this gives both the same number of passes).
SECONDS_SHARE = {"pure": 0.63, "compiled": 0.37}
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    """A step of the benchmark could not be run."""


def _run(command, **kwargs) -> subprocess.CompletedProcess:
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, **kwargs)
    if done.returncode != 0:
        raise BenchError(f"{' '.join(command)} exited {done.returncode}:\n"
                         f"{done.stdout[-2000:]}\n{done.stderr[-4000:]}")
    return done


def build_ext() -> float:
    """Force-rebuild ``repro.sim._ckernel`` in place; host seconds."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("TLT_")}
    env["TLT_REQUIRE_COMPILED"] = "1"  # a failed build is an error, not a pure fallback
    started = time.perf_counter()
    _run([sys.executable, "setup.py", "build_ext", "--inplace", "--force"], env=env)
    return time.perf_counter() - started


def child(mode: str, backend: str, args, *extra: str) -> dict:
    command = [sys.executable, os.path.join(BENCH, "child.py"), mode, "--backend", backend,
               "--workload", args.workload, "--seed", str(args.seed), *extra]
    if args.quick:
        command.append("--quick")
    done = _run(command)
    sys.stderr.write(done.stderr)  # the child says which backend it forced
    return json.loads(done.stdout.splitlines()[-1])


def set_up(args) -> dict:
    """One full set-up: rebuild, import, warm up, build the network.
    ``setup_s`` is the host seconds of those, each step divided by how
    slow the host was meanwhile (see ``hostspeed``); the parts are as
    measured."""
    marks = [calibrate()]
    parts = {"build_ext_s": build_ext()}
    marks.append(calibrate())
    report = child("setup", "compiled", args)
    marks.append(calibrate())
    in_child = {key: report[key] for key in ("import_s", "warmup_s", "build_network_s")}
    setup_s = (parts["build_ext_s"] / slowness(*marks[:2])
               + sum(in_child.values()) / slowness(*marks[1:]))
    return {**parts, **in_child, "host_slowness": slowness(marks[0], marks[2]),
            "setup_s": setup_s}


def provenance(args) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        sha = ""
    with open(CKERNEL_SOURCE, "rb") as handle:
        source_sha = hashlib.sha256(handle.read()).hexdigest()
    return {"git_sha": sha or "not-a-git-checkout", "ckernel_source_sha256": source_sha,
            "python": platform.python_version(), "nproc": os.cpu_count(), "seed": args.seed,
            "workload": args.workload, "quick": args.quick, "trace": args.trace}


# -- checks on the simulated outputs ---------------------------------------------


def checks(by_backend: dict, args) -> dict:
    """Name -> passed. ``by_backend[b]`` is one child report."""
    pure, compiled = by_backend["pure"], by_backend["compiled"]
    tlt = compiled["tlt"]
    result = {
        "digest_pure_eq_compiled": all(
            pure[v]["digest"] == compiled[v]["digest"] for v in spec.VARIANTS if v in pure),
        "no_failed_ops": all(
            report[v]["failed"] == 0 for report in by_backend.values()
            for v in spec.VARIANTS if v in report),
        "not_audited": not any(
            report[v]["audited"] for report in by_backend.values()
            for v in spec.VARIANTS if v in report),
        # The paper's saturated claims are checks, not metrics.
        "tlt_no_rto": tlt["rto_fires"] == 0,
        "tlt_no_green_data_drop": tlt["drops_green_data"] == 0,
    }
    if not args.quick:
        result["latency_samples_ge_1000"] = tlt["latency_samples"] >= 1000
    return result


# -- the two kinds of run --------------------------------------------------------


def end_to_end(args) -> tuple:
    setups = [set_up(args) for _ in range(SETUP_REPEATS)]
    # One child per backend, one after the other; each gets the share of
    # --seconds that gives both the same number of passes.
    reports = {backend: child("timed", backend, args, "--seconds", str(args.seconds * share))
               for backend, share in SECONDS_SHARE.items()}
    sim = reports["compiled"]
    values = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "sim_p99_ms.base": sim["base"]["p99_ms"],
        "sim_p99_ms.tlt": sim["tlt"]["p99_ms"],
        "sim_rto_free_per_kflow.base": sim["base"]["rto_free_per_kflow"],
        "sim_goodput_gbps.tlt": sim["tlt"]["goodput_gbps"],
    }
    for backend, report in reports.items():
        values[f"cpu_s.{backend}"] = sum(report[v]["cpu_s"] for v in spec.VARIANTS)
        values[f"peak_rss_mb.{backend}"] = report["peak_rss_mb"]
    passed = checks(reports, args)
    ratio = values["cpu_s.pure"] / values["cpu_s.compiled"]
    passed["sensitivity_ok"] = ratio > SENSITIVITY_FLOOR
    notes = {
        "passes": {backend: report["passes"] for backend, report in reports.items()},
        "cpu_ratio_pure_over_compiled": ratio,
        # As measured, before dividing by how slow the host was.
        "raw_cpu_s": {b: sum(r[v]["raw_cpu_s"] for v in spec.VARIANTS) for b, r in reports.items()},
        "raw_wall_s": {b: sum(r[v]["wall_sum_s"] for v in spec.VARIANTS)
                       for b, r in reports.items()},
        "host_slowness": {b: statistics.median(r[v]["host_slowness"] for v in spec.VARIANTS)
                          for b, r in reports.items()},
        "latency_samples": sim["tlt"]["latency_samples"],
        "digest": {v: sim[v]["digest"] for v in spec.VARIANTS},
        "setup_parts_s": {k: statistics.median(s[k] for s in setups) for k in setups[0]},
    }
    return values, passed, reports, notes


def per_layer(args) -> tuple:
    setup = set_up(args)
    shards = ["--shards", "2"] if args.workload == "fabric96-mixed" and not args.quick else []
    # Simulated results are the same on both backends (checked by
    # digest), so base runs, for its counters, on the faster one only.
    reports = {
        "pure": child("traced", "pure", args),
        "compiled": child("traced", "compiled", args, "--base", *shards),
    }
    sim = reports["compiled"]
    tlt = sim["tlt"]
    values = {
        "sim.events": tlt["events"],
        "net.link.frames": tlt["frames"],
        "net.link.bytes": tlt["link_bytes"],
        "switchsim.ecn_marks": tlt["ecn_marks"],
        "transport.flows": tlt["flows"],
        "transport.retx_bytes_share.tlt": tlt["retx_bytes_share"],
        "core.important_bytes_share": tlt["important_bytes_share"],
        "core.clock_pkts": tlt["clock_pkts"],
        "core.important_loss_ppm": tlt["important_loss_ppm"],
        "stats.flow_records_live": tlt["flow_records_live"],
        "stats.rtt_samples": tlt["rtt_samples"],
        "service.requests": tlt["service_requests"],
        "service.ops": tlt["service_ops"],
        "service.hedges": tlt["service_hedges"],
        "workload.latency_samples": tlt["latency_samples"],
        "setup.build_ext_s": setup["build_ext_s"],
        "setup.import_s": setup["import_s"],
        "setup.build_network_s": setup["build_network_s"],
        # Informational, and only where the fabric can be sharded.
        "sim.sharding.wall_ratio_2": (
            sim["sharded_wall_s"] / sim["unsharded_wall_s"] if shards else 0.0),
        "sim.sharding.identical": int(sim.get("sharded_identical", False)),
    }
    for variant in spec.VARIANTS:
        run = sim[variant]
        values.update({
            f"switchsim.drops_red.{variant}": run["drops_red"],
            f"switchsim.drops_green.{variant}": run["drops_green"],
            f"switchsim.pfc_pauses.{variant}": run["pfc_pauses"],
            f"transport.rto_fires.{variant}": run["rto_fires"],
            f"transport.fast_retx.{variant}": run["fast_retx"],
            f"workload.p50_ms.{variant}": run["p50_ms"],
        })
    for backend, report in reports.items():
        table = report["layers"]
        for layer, share in table["share"].items():
            values[f"{layer}.self_share.{backend}"] = share
        values[f"trace.other_share.{backend}"] = table["other_share"]
        untraced = report["tlt"]["wall_sum_s"]
        values[f"trace.overhead_x.{backend}"] = report["traced_wall_sum_s"] / untraced
        values[f"sim.events_per_s.{backend}"] = report["tlt"]["events"] / untraced
        for name, value in report["probes"].items():
            values[f"{name}.{backend}"] = value
    for layer, calls in reports["pure"]["layers"]["calls"].items():
        values[f"{layer}.calls.pure"] = calls
    passed = checks(reports, args)
    for backend, report in reports.items():
        table = report["layers"]
        total = sum(table["share"].values()) + table["other_share"]
        passed[f"shares_sum_to_1.{backend}"] = abs(total - 1.0) <= 0.02
        passed[f"other_share_le_5pct.{backend}"] = table["other_share"] <= 0.05
    if shards:
        passed["sharded_identical"] = bool(sim["sharded_identical"])
    notes = {"cores": os.cpu_count(),
             "digest": {v: sim[v]["digest"] for v in spec.VARIANTS}}
    return values, passed, reports, notes


# -- output ----------------------------------------------------------------------


def run_workload(args) -> dict:
    """Measure one workload; print the report; return the run record."""
    stamp = provenance(args)
    print("# " + " ".join(f"{key}={value}" for key, value in stamp.items()))
    definitions = spec.PER_LAYER if args.trace else spec.END_TO_END
    values, passed, reports, notes = per_layer(args) if args.trace else end_to_end(args)
    missing = {d["name"] for d in definitions} ^ set(values)
    if missing:
        raise BenchError(f"metrics and their definitions differ: {sorted(missing)}")
    metrics = {}
    for definition in definitions:
        name, unit = definition["name"], definition["unit"]
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{name:38s} {values[name]:>16.6f} {unit:12s} ({definition['better']} is better)")
    for key, value in notes.items():
        print(f"# {key}: {json.dumps(value)}")
    for name, ok in passed.items():
        print(f"check {name}: {'ok' if ok else 'FAILED'}")
    variants = [report[v] for report in reports.values() for v in spec.VARIANTS if v in report]
    result = {
        "correct": all(passed.values()),
        "attempted": sum(run["attempted"] for run in variants),
        "failed": sum(run["failed"] for run in variants),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return {"provenance": stamp, "checks": passed, "notes": notes, **result}


def append_record(path: str, record: dict) -> None:
    """Add ``record`` to the run set in ``path`` (what ``compare.py`` reads)."""
    runs = []
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            runs = json.load(handle)["runs"]
    runs.append(record)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"runs": runs}, handle, indent=1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS),
                        help="default: all four, one after the other")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS,
                        help="repeat the timed sub-runs while another pass of them fits")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="TINY sizes: a smoke run, not comparable to a full one")
    parser.add_argument("--out", help="append the run record to this JSON run set")
    args = parser.parse_args()
    names = [args.workload] if args.workload else list(spec.WORKLOADS)
    try:
        for path in (CKERNEL_SOURCE, os.path.join(ROOT, "setup.py")):
            if not os.path.isfile(path):
                raise BenchError(f"not a checkout of the simulator: {path} is missing")
        for args.workload in names:
            record = run_workload(args)
            if args.out:
                append_record(args.out, record)
    except (BenchError, subprocess.TimeoutExpired) as error:
        print(f"benchmark could not run: {error}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
