"""Service emulator: open-loop arrivals, tier graph, SLO report."""

import json
import os

import pytest

from repro.experiments.scale import TINY
from repro.experiments.scenarios import ScenarioConfig, run_scenario
from repro.service import ServiceSpec, slo_report
from repro.service.arrivals import OpenLoopArrivals
from repro.service.run import service_fingerprint
from repro.service.slo import render_slo_report
from repro.sim.backend import create_engine


SERVICE_SPEC = {
    "requests": 80,
    "rate_rps": 20_000.0,
    "tiers": [
        {"name": "cache", "servers": 3, "fanout": 2, "service_ns": 2_000},
        {"name": "storage", "servers": 2, "fanout": 1,
         "workload": "web_server", "max_bytes": 8_000, "service_ns": 5_000},
    ],
}


def _config(**overrides) -> ScenarioConfig:
    base = dict(transport="dctcp", scale=TINY, service=SERVICE_SPEC,
                enable_background=False, enable_incast=False, seed=1)
    base.update(overrides)
    return ScenarioConfig(**base)


# -- spec ------------------------------------------------------------------------


def test_spec_round_trip():
    spec = ServiceSpec.from_spec(SERVICE_SPEC)
    assert spec.total_fanout == 3
    again = ServiceSpec.from_spec(spec.to_spec())
    assert again == spec
    assert json.dumps(spec.to_spec())  # JSON-able for cache keys


def test_spec_validation():
    with pytest.raises(ValueError, match="tier"):
        ServiceSpec.from_spec({"requests": 10, "tiers": []})
    with pytest.raises(ValueError, match="fanout"):
        ServiceSpec.from_spec({"tiers": [
            {"name": "t", "servers": 2, "fanout": 3}]})
    with pytest.raises(ValueError, match="workload"):
        ServiceSpec.from_spec({"tiers": [{"name": "t", "workload": "nope"}]})
    with pytest.raises(ValueError, match="unique"):
        ServiceSpec.from_spec({"tiers": [{"name": "lb"}]})
    with pytest.raises(ValueError, match="process"):
        ServiceSpec.from_spec({"process": "uniform",
                               "tiers": [{"name": "t"}]})


# -- open-loop arrivals ----------------------------------------------------------


def _arrival_times(sink_extra_events: bool) -> list:
    """Fire times of 50 arrivals; optionally the sink floods the engine
    with extra work, which must not move a single arrival."""
    engine = create_engine()
    times = []

    def sink():
        times.append(engine.now)
        if sink_extra_events:
            for delay in (1, 2, 3):
                engine.schedule_timer(delay, lambda: None)

    arrivals = OpenLoopArrivals(engine, sink, total=50, rate_rps=1e6, seed=3)
    arrivals.schedule()
    engine.run(until=10**9)
    assert arrivals.exhausted
    return times


def test_open_loop_schedule_independent_of_request_processing():
    assert _arrival_times(False) == _arrival_times(True)


def test_arrival_processes_differ_but_share_mean():
    def times(process):
        engine = create_engine()
        out = []
        arrivals = OpenLoopArrivals(engine, lambda: out.append(engine.now),
                                    total=2_000, rate_rps=1e6,
                                    process=process, sigma=1.0, seed=5)
        arrivals.schedule()
        engine.run(until=10**10)
        return out

    poisson, lognormal = times("poisson"), times("lognormal")
    assert poisson != lognormal
    # Both target a 1 us mean gap; lognormal's heavy tail widens the
    # confidence band but the mean is the same by construction.
    for seq in (poisson, lognormal):
        mean_gap = seq[-1] / len(seq)
        assert 800 < mean_gap < 1_300


def test_arrivals_schedule_idempotent():
    engine = create_engine()
    fired = []
    arrivals = OpenLoopArrivals(engine, lambda: fired.append(engine.now),
                                total=5, rate_rps=1e6, seed=1)
    arrivals.schedule()
    arrivals.schedule()  # second arm must be a no-op
    engine.run(until=10**9)
    assert len(fired) == 5


# -- emulator through run_scenario ----------------------------------------------


def test_service_run_completes_and_is_deterministic():
    first = run_scenario(_config())
    second = run_scenario(_config())
    assert first.service is not None
    assert first.service.finished
    assert first.service.completed == SERVICE_SPEC["requests"]
    assert service_fingerprint(first) == service_fingerprint(second)
    # Different seed: different microstructure.
    other = run_scenario(_config(seed=2))
    assert service_fingerprint(other) != service_fingerprint(first)


def test_per_tier_latency_sketches_populated():
    result = run_scenario(_config())
    emulator = result.service
    summaries = emulator.tier_summaries()
    assert set(summaries) == {"cache", "storage"}
    # fanout 2 over the cache tier, 1 over storage, 80 requests.
    assert summaries["cache"]["count"] == 160
    assert summaries["storage"]["count"] == 80
    assert summaries["cache"]["p99"] > 0
    assert len(emulator.request_sketch) == 80


def test_hedging_issues_duplicate_ops():
    spec = dict(SERVICE_SPEC)
    spec["tiers"] = [
        {"name": "cache", "servers": 3, "fanout": 1, "service_ns": 200_000,
         "hedge_ns": 50_000},
    ]
    result = run_scenario(_config(service=spec))
    emulator = result.service
    assert emulator.finished
    assert emulator.hedges > 0
    # Hedge losers land in the tier sketch too (per-op latency), so the
    # tier op count exceeds fanout * requests.
    assert emulator.tier_summaries()["cache"]["count"] >= 80


def test_flow_retirement_keeps_stats_consistent():
    result = run_scenario(_config())
    stats = result.stats
    retired = sum(stats.retired_flows.values())
    assert retired > 0
    # Retired records leave the dict but stay in every aggregate.
    assert len(stats.flows) + retired == stats.flow_count()
    assert stats.flow_count() >= 80 * 3  # one flow per shard op + replies
    assert stats.goodput_bps("fg", result.duration_ns) > 0


def test_slo_report_schema_and_render():
    result = run_scenario(_config())
    report = slo_report(result.service, result.stats, result.duration_ns)
    assert report["schema"] == 1
    assert report["requests"]["completed"] == 80
    assert report["response_time_ms"]["count"] == 80
    assert report["slo"]["met"] in (True, False)
    assert set(report["tiers"]) == {"cache", "storage"}
    assert json.dumps(report)  # JSON-able as written to disk
    text = render_slo_report(report)
    assert "Service SLO report" in text
    assert "cache" in text and "storage" in text


def test_service_telemetry_stream(tmp_path):
    out_dir = str(tmp_path / "tele")
    result = run_scenario(_config(telemetry=out_dir))
    run_id = result.telemetry.run_id
    path = os.path.join(out_dir, f"run_{run_id}.jsonl")
    rows = [json.loads(line) for line in open(path, encoding="utf-8")]
    service_rows = [r for r in rows if r["stream"] == "service"]
    assert service_rows, "service stream missing from telemetry"
    tiers = {r["tier"] for r in service_rows}
    assert {"request", "cache", "storage"} <= tiers
    for row in service_rows:
        for field in ("tier", "count", "p50_ns", "p99_ns", "p999_ns"):
            assert field in row
    # SLO artifacts ride the same out_dir.
    assert os.path.exists(os.path.join(out_dir, f"slo_{run_id}.json"))
    assert os.path.exists(os.path.join(out_dir, f"slo_{run_id}.txt"))
    assert os.path.exists(os.path.join(out_dir, f"slo_{run_id}.html"))


def test_service_row_reducer_keys():
    from repro.experiments.service_slo import service_row

    row = service_row(run_scenario(_config()))
    assert set(row) == {"p50_ms", "p99_ms", "p999_ms", "timeouts_per_1k",
                        "req_per_s", "completed", "hedges", "slo_met"}
    assert all(isinstance(v, float) for v in row.values())
    assert row["completed"] == 80.0
