"""One measuring process of the benchmark (spawned by ``bench/run.py``).

``python bench/child.py MODE --backend B --workload W --seed N [--quick]``
prints one JSON object as its last line of standard output.

- ``setup``: times ``import repro``, the warm-up scenario and one
  stand-alone ``build_network`` in this fresh interpreter.
- ``timed``: warm-up, then every sub-run of ``base`` and of ``tlt``
  (``run_scenario`` each) with a calibration loop between them, again
  while another pass fits in ``--seconds``; their CPU seconds at
  reference speed, this process's peak RSS, and the pooled simulated
  results and digests.
- ``traced``: warm-up, ``tlt`` without the profiler (and ``base`` with
  ``--base``) for the exact counters, then ``tlt`` again under
  ``cProfile`` for the per-layer table, then the isolation probes.

The process first removes every ``TLT_*`` variable from its
environment, imports ``repro`` from this checkout's ``src`` and nowhere
else, and forces the backend with ``set_backend`` (which raises when
the compiled kernel is missing — there is no fallback to pure).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def _import_repro(backend: str) -> float:
    """Import the simulator, check where it came from, force ``backend``.
    Returns the host seconds the imports took."""
    started = time.perf_counter()
    import repro
    import repro.experiments.scenarios
    import repro.service.run  # noqa: F401 - part of what a service run imports
    from repro.sim import backend as backend_mod
    elapsed = time.perf_counter() - started

    under = os.path.join(SRC, "")
    if not os.path.abspath(repro.__file__).startswith(under):
        raise SystemExit(f"repro imported from {repro.__file__}, not from {SRC}")
    backend_mod.set_backend(backend)
    if backend == "compiled":
        from repro.sim import _ckernel
        if not os.path.abspath(_ckernel.__file__).startswith(under):
            raise SystemExit(f"_ckernel imported from {_ckernel.__file__}, not from {SRC}")
    print(f"[child] backend={backend_mod.current_backend()} (set_backend, forced) "
          f"repro={os.path.dirname(repro.__file__)}", file=sys.stderr)
    return elapsed


# -- reading a finished run ------------------------------------------------------


def digest_fields(result) -> dict:
    """The ``tests/test_determinism.py`` fingerprint field set, plus the
    emulator state on service runs."""
    stats = result.stats
    fields = {
        "duration_ns": result.duration_ns,
        "events": result.net.engine.events_processed,
        "timeouts": stats.timeouts,
        "fast_retransmits": stats.fast_retransmits,
        "ecn_marks": stats.ecn_marks,
        "pause_frames": stats.pause_frames,
        "resume_frames": stats.resume_frames,
        "drops_green": stats.drops_green,
        "drops_red": stats.drops_red,
        "drop_bytes": stats.drop_bytes,
        "green_data_packets": stats.green_data_packets,
        "red_data_packets": stats.red_data_packets,
        "clocking_packets": stats.clocking_packets,
        "flow_count": stats.flow_count(),
        "incomplete": stats.incomplete_flows(),
        "fct_fg_sum": sum(stats.fct_list("fg")),
        "fct_bg_sum": sum(stats.fct_list("bg")),
        "rtt_fg_sum": sum(stats.rtt_samples_fg),
        "rtt_bg_sum": sum(stats.rtt_samples_bg),
        "delivery_sum": sum(stats.delivery_samples),
        "queue_samples": len(result.queue_samples),
        "queue_sample_sum": sum(result.queue_samples),
    }
    if result.service is not None:
        fields["service"] = result.service.fingerprint()
    return fields


def digest(result) -> str:
    import hashlib

    blob = json.dumps(digest_fields(result), sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def _sim_span_ns(result) -> int:
    """Simulated time the run's bytes took: first flow start to last
    payload byte delivered. Service runs retire their flow records, and
    stop at the first 10 ms boundary after the last request, so there
    it is the run's duration."""
    stats = result.stats
    if stats.retired_flows or not stats.flows:
        return result.duration_ns
    records = stats.flows.values()
    ends = [r.end_rx_ns for r in records if r.end_rx_ns is not None]
    return max(ends) - min(r.start_ns for r in records) if ends else result.duration_ns


def read_result(result) -> dict:
    """One finished run: its digest, its latency samples (a list of
    foreground FCTs, or the request sketch of a service run) and the
    counters that add up over sub-runs."""
    from repro.net.link import Port

    stats = result.stats
    service = result.service
    records = stats.flows.values()
    ports = [port for device in result.net.hosts + result.net.switches
             for port in device.ports if isinstance(port, Port)]
    return {
        "digest": digest(result),
        "audited": result.auditor is not None,
        "latency": service.request_sketch if service else stats.fct_list("fg"),
        "counts": {
            "attempted": service.spec.requests if service else stats.flow_count(),
            "failed": (service.spec.requests - service.completed if service
                       else stats.incomplete_flows()),
            "events": result.net.engine.events_processed,
            "frames": sum(port.tx_packets for port in ports),
            "link_bytes": sum(port.tx_bytes for port in ports),
            "flows": stats.flow_count(),
            "flow_records_live": len(stats.flows),
            # Retired records keep only the total of their RTO fires, so each
            # counts as one flow (exact while a flow fires at most once).
            "rto_flows": sum(1 for r in records if r.timeouts) + stats.retired_timeouts,
            "done_bytes": (sum(r.size for r in records if r.completed)
                           + sum(stats.retired_bytes.values())),
            "span_ns": _sim_span_ns(result),
            "bg_bytes": sum(r.size for r in records if r.group == "bg"),
            "tx_bytes": sum(r.tx_bytes for r in records),
            "retx_bytes": sum(r.retx_bytes for r in records),
            "rto_fires": stats.timeouts,
            "fast_retx": stats.fast_retransmits,
            "drops_red": stats.drops_red,
            "drops_green": stats.drops_green,
            "drops_green_data": stats.drops_green_data,
            "ecn_marks": stats.ecn_marks,
            "pfc_pauses": stats.pause_frames,
            "green_data_bytes": stats.green_data_bytes,
            "red_data_bytes": stats.red_data_bytes,
            "green_data_packets": stats.green_data_packets,
            "clock_pkts": stats.clocking_packets,
            "rtt_samples": stats.rtt_samples_fg.seen + stats.rtt_samples_bg.seen,
            "service_requests": service.completed if service else 0,
            "service_ops": sum(s.count for s in service.tier_sketches) if service else 0,
            "service_hedges": service.hedges if service else 0,
        },
    }


def pool(runs: list) -> dict:
    """The sub-runs of one variant as one result: counters summed,
    latency samples pooled, ratios taken over the sums."""
    import hashlib

    from repro.stats.percentile import summarize
    from repro.stats.streaming import StreamingQuantile

    total = {key: sum(run["counts"][key] for run in runs) for key in runs[0]["counts"]}
    if isinstance(runs[0]["latency"], list):
        latency = summarize([fct for run in runs for fct in run["latency"]])
    else:
        merged = StreamingQuantile()
        for run in runs:
            merged.merge(run["latency"])
        latency = merged.summarize()
    data_bytes = total["green_data_bytes"] + total["red_data_bytes"]
    flows = total["flows"]
    total.update(
        digest=hashlib.sha256("".join(run["digest"] for run in runs).encode()).hexdigest(),
        audited=any(run["audited"] for run in runs),
        p50_ms=latency["p50"] / 1e6,
        p99_ms=latency["p99"] / 1e6,
        latency_samples=latency["count"],
        rto_free_per_kflow=1000.0 * (flows - min(flows, total["rto_flows"])) / flows,
        goodput_gbps=total["done_bytes"] * 8 / total["span_ns"],
        retx_bytes_share=total["retx_bytes"] / total["tx_bytes"] if total["tx_bytes"] else 0.0,
        important_bytes_share=total["green_data_bytes"] / data_bytes if data_bytes else 0.0,
        important_loss_ppm=(1e6 * total["drops_green_data"] / total["green_data_packets"]
                            if total["green_data_packets"] else 0.0),
    )
    return total


# -- running the sub-runs --------------------------------------------------------


def timed_run(config, profiler=None) -> tuple:
    """``run_scenario(config)``: its wall seconds, its CPU seconds and
    what ``read_result`` keeps of it."""
    from repro.experiments.scenarios import run_scenario
    from workloads import background_bytes

    wall, cpu = time.perf_counter(), time.process_time()
    if profiler is not None:
        profiler.enable()
    result = run_scenario(config)
    if profiler is not None:
        profiler.disable()
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    read = read_result(result)
    # The background volume the scenario seed was chosen for is the
    # volume the run created (see workloads._volume_matched_seed).
    if config.service is None and config.enable_background:
        predicted = background_bytes(config.seed, config.scale.bg_flows, config.workload)
        if predicted != read["counts"]["bg_bytes"]:
            raise SystemExit(f"background volume differs from predicted {predicted}")
    return wall, cpu, read


def run_variant(configs: list, profiler=None) -> dict:
    """Run the sub-runs of one variant: pooled result plus
    ``wall_sum_s``, the host seconds of all of them."""
    timed = [timed_run(config, profiler) for config in configs]
    return dict(pool([read for _wall, _cpu, read in timed]),
                wall_sum_s=sum(wall for wall, _cpu, _read in timed))


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- modes -----------------------------------------------------------------------


def mode_setup(args) -> dict:
    from repro.experiments.scenarios import build_network, run_scenario
    from workloads import scheme_pairs, warm_up

    started = time.perf_counter()
    run_scenario(warm_up(args.workload))
    warmup_s = time.perf_counter() - started
    config = scheme_pairs(args.workload, args.seed, args.quick)[0][1]
    started = time.perf_counter()
    build_network(config)
    return {"warmup_s": warmup_s, "build_network_s": time.perf_counter() - started}


def mode_timed(args) -> dict:
    from hostspeed import calibrate, host_cost, slowness
    from repro.experiments.scenarios import run_scenario
    from spec import VARIANTS
    from workloads import scheme_pairs, warm_up

    run_scenario(warm_up(args.workload))
    order = [(variant, config) for pair in scheme_pairs(args.workload, args.seed, args.quick)
             for variant, config in zip(VARIANTS, pair)]
    runs = {variant: [] for variant in VARIANTS}
    samples = {variant: [] for variant in VARIANTS}
    walls, cpus = dict.fromkeys(VARIANTS, 0.0), dict.fromkeys(VARIANTS, 0.0)
    passes, started, cal = 0, time.perf_counter(), calibrate()
    while True:
        for index, (variant, config) in enumerate(order):
            wall, cpu, read = timed_run(config)
            before, cal = cal, calibrate()
            samples[variant].append((cpu, read["counts"]["events"], slowness(before, cal)))
            if passes == 0:
                runs[variant].append(read)
                walls[variant] += wall
                cpus[variant] += cpu
            elif read["digest"] != runs[variant][index // len(VARIANTS)]["digest"]:
                raise SystemExit(f"sub-run {index} simulated something else when repeated")
        passes += 1
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / passes > args.seconds:
            break
    report = {"peak_rss_mb": _peak_rss_mb(), "passes": passes}
    for variant in VARIANTS:
        pooled = pool(runs[variant])
        report[variant] = dict(
            pooled, cpu_s=host_cost(samples[variant], pooled["events"]),
            raw_cpu_s=cpus[variant], wall_sum_s=walls[variant],
            host_slowness=statistics.median(s[2] for s in samples[variant]))
    return report


def mode_traced(args) -> dict:
    import cProfile
    import dataclasses
    import pstats

    import layers
    import probes
    from repro.experiments.scenarios import run_scenario
    from workloads import TRACED_SUBRUNS, scheme_pairs, warm_up

    run_scenario(warm_up(args.workload))
    base, tlt = zip(*scheme_pairs(args.workload, args.seed, args.quick)[:TRACED_SUBRUNS])
    report = {"tlt": run_variant(tlt)}
    if args.base:
        report["base"] = run_variant(base)

    profiler = cProfile.Profile()
    traced = run_variant(tlt, profiler)
    if traced["digest"] != report["tlt"]["digest"]:
        raise SystemExit("the traced runs simulated something else than the untraced ones")
    report["traced_wall_sum_s"] = traced["wall_sum_s"]
    report["layers"] = layers.attribute(pstats.Stats(profiler), os.path.join(SRC, "repro"))

    if args.shards:
        started = time.perf_counter()
        single = run_scenario(tlt[0])
        report["unsharded_wall_s"] = time.perf_counter() - started
        started = time.perf_counter()
        sharded = run_scenario(dataclasses.replace(tlt[0], shards=args.shards))
        report["sharded_wall_s"] = time.perf_counter() - started
        report["sharded_identical"] = digest(sharded) == digest(single)
    report["probes"] = {name: probe() for name, probe in probes.PROBES.items()}
    return report


MODES = {"setup": mode_setup, "timed": mode_timed, "traced": mode_traced}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=sorted(MODES))
    parser.add_argument("--backend", required=True, choices=("pure", "compiled"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="timed mode: repeat the sub-runs while another pass fits")
    parser.add_argument("--base", action="store_true",
                        help="traced mode: also run base, for its counters")
    parser.add_argument("--shards", type=int, default=0,
                        help="traced mode: also run tlt on this many shards")
    args = parser.parse_args()
    for name in [name for name in os.environ if name.startswith("TLT_")]:
        del os.environ[name]
    import_s = _import_repro(args.backend)
    report = MODES[args.mode](args)
    report.update(import_s=import_s, backend=args.backend)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
