"""Tests for repro.telemetry: samplers, exporters, the end-of-run
snapshot, recorder, scenario wiring, and the determinism/caching
contracts."""

import importlib.util
import json
import os
from dataclasses import fields, replace

import pytest

from repro.experiments.scale import TINY
from repro.experiments.scenarios import ScenarioConfig, run_scenario
from repro.telemetry import (
    Telemetry,
    TelemetryConfig,
    merge_streams,
    to_prometheus,
)
from repro.telemetry.recorder import FlightRecorder

from tests.util import run_flow, small_star

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_telemetry", os.path.join(ROOT, "tools", "check_telemetry.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# -- the end-of-run snapshot ---------------------------------------------------


def test_prometheus_exposition_format():
    text = to_prometheus([
        ("tlt_x_total", "counter", "help text", [({}, 5)]),
        ("tlt_g", "gauge", "g", [({"switch": 'to"r0'}, 1.5), ({"switch": "tor1"}, 2.0)]),
    ])
    assert text == (
        "# HELP tlt_g g\n"
        "# TYPE tlt_g gauge\n"
        'tlt_g{switch="to\\"r0"} 1.5\n'
        'tlt_g{switch="tor1"} 2\n'
        "# HELP tlt_x_total help text\n"
        "# TYPE tlt_x_total counter\n"
        "tlt_x_total 5\n"
    )


# -- samplers -----------------------------------------------------------------


def test_sampler_interval_validation():
    with pytest.raises(ValueError):
        TelemetryConfig.from_spec({"interval_ns": -5})


def test_config_is_out_dir_and_interval_only():
    assert [f.name for f in fields(TelemetryConfig)] == ["out_dir", "interval_ns"]
    for option in ("csv", "html", "queues", "flow_interval_ns", "max_flows", "run_id"):
        with pytest.raises(ValueError, match="unknown telemetry option"):
            TelemetryConfig.from_spec({option: True})


def test_telemetry_samplers_stop_when_engine_drains(tmp_path):
    """The auto-active predicate: samplers stop re-arming once the only
    pending events are their own, so telemetry never wedges a run."""
    net = small_star()
    telemetry = Telemetry(
        net, TelemetryConfig(out_dir=str(tmp_path), interval_ns=10_000)
    ).install()
    _, _, record = run_flow(net, "dctcp", size=200_000)
    assert record.completed
    net.engine.run()  # drains: samplers must let the wheel empty
    assert net.engine.pending == 0
    summary = telemetry.finalize()
    assert summary["emitted"] > 0
    assert "queue" in summary["streams"] or "link" in summary["streams"]


def test_flow_sampler_reads_sender_state(tmp_path):
    """Both families, under loss: the sampler reads ``pipe`` and
    ``rto_armed`` off the shared reliable-delivery core, so a flow with
    data outstanding must show up with its RTO armed."""
    from repro.faults import FaultInjector

    for transport in ("dctcp", "irn"):
        net = small_star()
        telemetry = Telemetry(
            net, TelemetryConfig(out_dir=str(tmp_path / transport), interval_ns=5_000)
        ).install()
        injector = FaultInjector(net.switches[0], 0.02, stats=net.stats)
        run_flow(net, transport, size=500_000)
        telemetry.finalize()
        assert injector.corrupted > 0
        rows = telemetry.samples["flow"]
        assert rows
        assert all(row["cwnd"] > 0 for row in rows)
        assert any(row["inflight"] > 0 for row in rows)
        assert all(row["rto_armed"] in (0, 1) for row in rows)
        assert any(row["rto_armed"] == 1 for row in rows)


def test_flow_sampler_tick_touches_only_live_senders(monkeypatch):
    """A host that received 10 000 flows keeps 10 000 receivers in its
    demux table; a tick selects its 3 live senders before it sorts or
    builds a row, so its cost does not grow with the flows finished."""
    from repro.telemetry.samplers import FlowStateSampler
    from repro.transport.base import FlowSpec
    from repro.transport.registry import create_flow

    net = small_star(2)
    finished, live = 10_000, (20_003, 20_001, 20_002)
    for flow_id in range(finished):
        create_flow("dctcp", net, FlowSpec(flow_id, 0, 1, 1_000, start_ns=flow_id * 400))
    net.engine.run()
    assert net.stats.incomplete_flows() == 0 and len(net.host(1).endpoints) == finished
    for flow_id in live:
        create_flow("dctcp", net, FlowSpec(flow_id, 1, 0, 50_000_000, start_ns=net.engine.now))
    net.engine.run(until=net.engine.now + 20_000)

    rows, touched = [], []
    sampler = FlowStateSampler(net, 1_000, lambda stream, row: rows.append(row), start=False)
    build = FlowStateSampler._row
    monkeypatch.setattr(FlowStateSampler, "_row",
                        staticmethod(lambda sender: touched.append(sender) or build(sender)))
    sampler.sample()
    assert len(touched) == 3
    assert [row["flow"] for row in rows] == sorted(live)
    assert all(row["inflight"] > 0 and row["rto_armed"] == 1 for row in rows)


# -- flight recorder ----------------------------------------------------------


def test_flight_recorder_window_and_dump(tmp_path):
    recorder = FlightRecorder(str(tmp_path), "t1", window=3, max_dumps=2)
    for i in range(10):
        recorder.on_sample({"t": i, "i": i, "stream": "queue"})
    path = recorder.trigger("rto_fire", {"flow": 7})
    payload = json.loads(open(path).read())
    assert payload["schema"] == 1
    assert payload["run"] == "t1"
    assert payload["trigger"]["kind"] == "rto_fire"
    assert payload["trigger"]["flow"] == 7
    # Bounded window: only the 3 most recent samples retained.
    assert [s["t"] for s in payload["samples"]] == [7, 8, 9]
    recorder.trigger("fault")
    assert recorder.trigger("fault") is None  # capped
    assert recorder.suppressed == 1
    assert len(recorder.triggers) == 3


def test_rto_fire_triggers_flight_dump(tmp_path):
    """An RTO fire during a run dumps a snapshot via stats.on_rto_fire."""
    from repro.faults import FaultInjector

    net = small_star()
    telemetry = Telemetry(
        net, TelemetryConfig(out_dir=str(tmp_path), interval_ns=10_000)
    ).install()
    FaultInjector(net.switches[0], 1.0, stats=net.stats)  # kill everything
    run_flow(net, "tcp", size=20_000, until=100_000_000)
    telemetry.finalize()
    assert net.stats.timeouts > 0
    assert telemetry.recorder.dumps
    payload = json.loads(open(telemetry.recorder.dumps[0]).read())
    assert payload["trigger"]["kind"] == "rto_fire"
    assert payload["trigger"]["rto_ns"] > 0


# -- scenario wiring ----------------------------------------------------------


def _tiny_config(**kwargs):
    return ScenarioConfig(transport="dctcp", tlt=True, scale=TINY, seed=3, **kwargs)


def test_scenario_run_produces_schema_valid_telemetry(tmp_path):
    out = str(tmp_path / "tele")
    result = run_scenario(_tiny_config(telemetry={"out_dir": out}))
    telemetry = result.telemetry
    assert telemetry is not None
    summary = telemetry.summary()
    for stream in ("queue", "buffer", "flow", "link"):
        assert summary["streams"].get(stream), f"stream {stream} empty"
    names = sorted(os.listdir(out))
    assert any(n.endswith(".jsonl") for n in names)
    assert any(n.endswith(".prom") for n in names)
    report = next(n for n in names if n.startswith("report_") and n.endswith(".txt"))
    text = open(os.path.join(out, report)).read()
    # Fig-11 shape: per-queue green/red timeline against K.
    assert "Queue occupancy by color vs threshold K" in text
    assert "green |" in text and "red   |" in text and "K=400kB" in text
    # Schema check with the real CI tool.
    checker = _load_checker()
    counts, flights, errors = checker.check_dir(out)
    assert not errors, errors
    assert sum(counts.values()) == summary["emitted"]


def test_telemetry_writes_and_mirrors_the_run_manifest(tmp_path):
    """The manifest beside the streams, the ``tlt_run_*`` families in the
    snapshot, and a checker that notices when either is wrong."""
    from repro.experiments.cache import code_version

    out = str(tmp_path / "tele")
    result = run_scenario(_tiny_config(audit=False, telemetry={"out_dir": out}))
    run_id = result.telemetry.run_id
    assert result.manifest["run_id"] == run_id and result.manifest["telemetry"]
    path = os.path.join(out, f"manifest_{run_id}.json")
    with open(path) as handle:
        assert json.load(handle) == {**result.manifest, "code": code_version()}
    with open(os.path.join(out, f"run_{run_id}.prom")) as handle:
        prom = handle.read()
    backend = result.manifest["backend"]
    assert f'tlt_run_info{{backend="{backend}",shards="1",audit="false"}} 1' in prom
    assert f"tlt_run_events_total {result.manifest['events']}\n" in prom

    checker = _load_checker()
    assert not checker.check_dir(out)[2]
    with open(path, "w") as handle:
        json.dump({**result.manifest, "code": "x", "events_per_s": 1}, handle)
    assert any("events_per_s" in error for error in checker.check_dir(out)[2])
    with open(path, "w") as handle:
        json.dump({**result.manifest, "code": "x",
                   "collect_s": result.manifest["wall_s"] + 1}, handle)
    assert any("collect_s" in error for error in checker.check_dir(out)[2])
    with open(path, "w") as handle:
        json.dump({"schema": checker.SCHEMA}, handle)
    assert any("missing fields" in error for error in checker.check_dir(out)[2])
    with open(os.path.join(out, f"run_{run_id}.prom"), "w") as handle:
        handle.write("# nothing\n")
    assert any("tlt_run_info" in error for error in checker.check_dir(out)[2])


def _prom_series(text):
    """``{series: value}`` and ``{family: type}`` of a ``.prom`` text."""
    series, types = {}, {}
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ")
            types[name] = kind
        elif not line.startswith("#"):
            key, value = line.rsplit(" ", 1)
            series[key] = float(value)
    return series, types


@pytest.mark.parametrize("path_selection", [None, "flowlet"])
def test_snapshot_holds_the_end_of_run_values(tmp_path, path_selection):
    """Every series of the ``.prom`` is a value read at the end of the
    run: the manifest, the NetStats totals, the switches' path counters
    and live K. Nothing a sampler saw last is left in it."""
    out = str(tmp_path / "tele")
    result = run_scenario(ScenarioConfig(
        transport="dctcp", tlt=True, scale=replace(TINY, num_spines=2), seed=3, audit=False,
        path_selection=path_selection, telemetry={"out_dir": out}))
    stats, manifest, run_id = result.net.stats, result.manifest, result.telemetry.run_id
    expected = {
        "tlt_timeouts_total": stats.timeouts,
        "tlt_fast_retransmits_total": stats.fast_retransmits,
        "tlt_ecn_marks_total": stats.ecn_marks,
        "tlt_pause_frames_total": stats.pause_frames,
        "tlt_drops_green_total": stats.drops_green,
        "tlt_drops_red_total": stats.drops_red,
        "tlt_drops_fault_total": stats.drops_fault,
        "tlt_flows_incomplete": stats.incomplete_flows(),
        "tlt_telemetry_samples_total": result.telemetry.emitted,
        "tlt_run_wall_seconds": manifest["wall_s"],
        "tlt_run_cpu_seconds": manifest["cpu_s"],
        "tlt_run_peak_rss_bytes": int(manifest["peak_rss_mb"] * 1024 * 1024),
        "tlt_run_events_total": manifest["events"],
        f'tlt_run_info{{backend="{manifest["backend"]}",shards="1",audit="false"}}': 1,
    }
    for switch in result.net.switches:
        expected[f'tlt_policy_color_threshold_bytes{{switch="{switch.name}"}}'] = \
            switch.policy.describe()["k"]
        if path_selection is not None:
            expected[f'tlt_path_flowlets_total{{switch="{switch.name}"}}'] = \
                switch.fib.flowlets
            expected[f'tlt_path_reroutes_total{{switch="{switch.name}"}}'] = \
                switch.fib.reroutes
    with open(os.path.join(out, f"run_{run_id}.prom")) as handle:
        series, types = _prom_series(handle.read())
    assert series == expected
    assert set(types) == {key.partition("{")[0] for key in expected}
    if path_selection is not None:
        assert types["tlt_path_flowlets_total"] == types["tlt_path_reroutes_total"] == "counter"
        assert any(switch.fib.flowlets for switch in result.net.switches)


def test_checker_matches_snapshot_samples_to_the_stream(tmp_path):
    """``tlt_telemetry_samples_total`` must count the run's JSONL records:
    the checker notices when either file is edited."""
    out = str(tmp_path / "tele")
    run_id = run_scenario(_tiny_config(audit=False, telemetry={"out_dir": out})).telemetry.run_id
    checker = _load_checker()
    assert not checker.check_dir(out)[2]
    stream = os.path.join(out, f"run_{run_id}.jsonl")
    prom = os.path.join(out, f"run_{run_id}.prom")
    with open(stream) as handle:
        lines = handle.readlines()
    with open(stream, "w") as handle:
        handle.writelines(lines[:-1])
    assert any("tlt_telemetry_samples_total" in error for error in checker.check_dir(out)[2])
    with open(stream, "w") as handle:
        handle.writelines(lines)
    assert not checker.check_dir(out)[2]
    with open(prom) as handle:
        text = handle.read()
    with open(prom, "w") as handle:
        handle.write(text.replace(f"tlt_telemetry_samples_total {len(lines)}\n",
                                  f"tlt_telemetry_samples_total {len(lines) + 1}\n"))
    assert any("tlt_telemetry_samples_total" in error for error in checker.check_dir(out)[2])


def test_queue_rows_carry_the_live_k(tmp_path):
    """Under adaptive-K, the ``queue`` stream's ``k`` is the K the switch
    admits against: the ``policy`` row of the same switch and tick."""
    from repro.experiments.fig13_mixed_traffic import CacheWithBackground
    from repro.experiments.testbed import paper_testbed

    config = paper_testbed(transport="dctcp", tlt=True, admission="adaptive-k", seed=1,
                           telemetry={"out_dir": str(tmp_path)})
    samples = run_scenario(config, CacheWithBackground()).telemetry.samples
    policy_k = {(row["t"], row["switch"]): row["k"] for row in samples["policy"]}
    assert len(set(policy_k.values())) > 1  # K was retuned during the run
    assert samples["queue"]
    for row in samples["queue"]:
        assert row["k"] == policy_k[row["t"], row["switch"]]
    assert len({row["k"] for row in samples["queue"]}) > 1


def test_sharded_telemetry_writes_each_shards_manifest_and_the_merged_one(
        tmp_path, monkeypatch):
    monkeypatch.setenv("TLT_SHARD_INLINE", "1")
    out = str(tmp_path / "tele")
    result = run_scenario(_tiny_config(audit=False, shards=2,
                                       telemetry={"out_dir": out}))
    run_id = result.manifest["run_id"]
    assert not run_id.endswith("_sh0")
    written = {}
    for suffix in ("", "_sh0", "_sh1"):
        with open(os.path.join(out, f"manifest_{run_id}{suffix}.json")) as handle:
            written[suffix] = json.load(handle)
    assert written[""]["shard"]["events"] == \
        [written["_sh0"]["events"], written["_sh1"]["events"]]
    assert written[""]["events"] == result.net.engine.events_processed
    assert not _load_checker().check_dir(out)[2]


def test_scenario_telemetry_via_environment(tmp_path, monkeypatch):
    out = str(tmp_path / "env-tele")
    monkeypatch.setenv("TLT_TELEMETRY", out)
    result = run_scenario(_tiny_config())
    assert result.telemetry.config.out_dir == out
    assert any(name.endswith(".prom") for name in os.listdir(out))


def test_faulted_scenario_dumps_cross_referenced_flight_records(tmp_path):
    """Acceptance: a faulted run produces >= 1 flight dump whose trigger
    cross-references the fault event that fired it."""
    out = str(tmp_path / "tele")
    spec = {"events": [
        {"time_ns": 1_000_000, "kind": "corruption_on", "target": "tor0",
         "params": {"rate": 0.001}},
        {"time_ns": 10_000_000, "kind": "corruption_off", "target": "tor0"},
    ]}
    result = run_scenario(_tiny_config(faults=spec, telemetry={"out_dir": out}))
    recorder = result.telemetry.recorder
    assert recorder.dumps
    payload = json.loads(open(recorder.dumps[0]).read())
    assert payload["trigger"]["kind"] == "fault"
    assert payload["trigger"]["fault_kind"] == "corruption_on"
    assert payload["trigger"]["target"] == "tor0"
    assert payload["trigger"]["time_ns"] == 1_000_000
    # Cross-link to the audit subsystem: conftest runs scenarios with
    # TLT_AUDIT=1, so the hot-path ring tail rides along.
    assert payload["audit_trace"]
    checker = _load_checker()
    _, flights, errors = checker.check_dir(out)
    assert flights >= 1 and not errors, errors


def test_audit_error_dumps_flight_record(tmp_path, monkeypatch):
    """A raised AuditError snapshots the recorder before propagating."""
    from repro.audit import AuditError

    out = str(tmp_path / "tele")

    import repro.experiments.scenarios as scenarios

    class Boom:
        def install(self):
            return self

        def final_check(self):
            raise AuditError(["synthetic violation"], [], time_ns=42)

    monkeypatch.setattr(scenarios, "Auditor", lambda net, cfg: Boom())
    with pytest.raises(AuditError):
        run_scenario(_tiny_config(audit=True, telemetry={"out_dir": out}))
    flight = [n for n in os.listdir(out) if n.startswith("flight_")]
    assert flight
    payload = json.loads(open(os.path.join(out, flight[0])).read())
    assert payload["trigger"]["kind"] == "audit_error"
    assert payload["trigger"]["violations"] == ["synthetic violation"]


# -- determinism + caching contracts ------------------------------------------


def test_telemetry_on_fingerprint_matches_golden(tmp_path):
    """Acceptance: with telemetry enabled, every pre-optimization golden
    fingerprint field is bit-identical except the raw engine event count
    (samplers are real engine events; they read state, never mutate it)."""
    from tests.test_determinism import CONFIGS, EXPECTED, fingerprint

    config = replace(CONFIGS["dctcp_tlt"](), telemetry={"out_dir": str(tmp_path)})
    observed = fingerprint(config)
    expected = dict(EXPECTED["dctcp_tlt"])
    extra_events = observed.pop("events") - expected.pop("events")
    assert observed == expected
    assert extra_events > 0  # the sampler events themselves


def test_telemetry_on_runs_are_bit_identical(tmp_path):
    from tests.test_determinism import CONFIGS, fingerprint

    def run(tag):
        out = str(tmp_path / tag)
        return fingerprint(replace(CONFIGS["dctcp_tlt"](),
                                   telemetry={"out_dir": out}))

    assert run("a") == run("b")


def test_telemetry_excluded_from_cache_keys(tmp_path):
    """Telemetry is an observation, not a result: the cache key of a
    telemetry run equals the plain run's (contrast faults, folded in)."""
    from repro.experiments.parallel import Job

    plain = _tiny_config()
    instrumented = _tiny_config(telemetry={"out_dir": str(tmp_path)})
    assert (Job(0, instrumented, seed=3).cache_key()
            == Job(0, plain, seed=3).cache_key())
    faulted = _tiny_config(faults={"events": []})
    assert Job(0, faulted, seed=3).cache_key() != Job(0, plain, seed=3).cache_key()


# -- stream merge -------------------------------------------------------------


def test_merge_streams_orders_by_seed_then_sim_time(tmp_path):
    out = str(tmp_path / "tele")
    for seed in (5, 4):
        run_scenario(ScenarioConfig(transport="dctcp", tlt=True, scale=TINY,
                                    seed=seed, telemetry={"out_dir": out}))
    path, count = merge_streams(out)
    assert path and count > 0
    keys = []
    with open(path) as handle:
        for line in handle:
            record = json.loads(line)
            keys.append((record["seed"], record["t"], record["run"], record["i"]))
    assert keys == sorted(keys)
    assert {k[0] for k in keys} == {4, 5}
    checker = _load_checker()
    jsonl_count, errors = checker.check_jsonl(path, merged=True)
    assert jsonl_count == count and not errors, errors


def test_merge_streams_empty_dir(tmp_path):
    assert merge_streams(str(tmp_path)) == (None, 0)
    assert merge_streams(str(tmp_path / "missing")) == (None, 0)
