"""Micro-scale smoke tests for the experiment modules.

Each module's ``run()`` must produce structurally valid rows at a
minimal scale (the benchmarks exercise them at full scale)."""

import importlib
from types import SimpleNamespace

import pytest

from repro.experiments.parallel import JobResult, resolve_metrics
from repro.experiments.runner import EXPERIMENTS
from repro.experiments.scale import Scale
from repro.experiments.scenarios import ScenarioConfig, run_scenario

#: Smallest meaningful scale: single-digit seconds per scenario.
MICRO = Scale("micro", num_spines=1, num_tors=2, hosts_per_tor=2,
              bg_flows=6, incast_events=1, incast_flows_per_sender=2)


def test_fig01_rows():
    from repro.experiments import fig01_rto_cdf as exp

    rows = exp.run(MICRO)
    assert len(rows) == 4
    assert {r["metric"] for r in rows} == {"rtt_us", "rto_us"}
    assert all(r["p50"] <= r["p99"] for r in rows)


def test_fig02_rows():
    from repro.experiments import fig02_fixed_rto as exp

    rows = exp.run(MICRO)
    assert [r["scheme"] for r in rows] == ["baseline_4ms", "fixed_160us"]


def test_fig08_rows():
    from repro.experiments import fig08_threshold_sweep as exp

    rows = exp.run(MICRO, thresholds=(200_000, 400_000))
    assert len(rows) == 4
    assert {r["threshold_kB"] for r in rows} == {200, 400}


def test_fig09_rows():
    from repro.experiments import fig09_load_sweep as exp

    rows = exp.run(MICRO, loads=(0.2,), transports=("dctcp",))
    assert len(rows) == 2  # ±TLT
    assert all(r["load"] == 0.2 for r in rows)


def test_fig10_rows():
    from repro.experiments import fig10_fg_share as exp

    rows = exp.run(MICRO, shares=(0.0, 0.1))
    assert len(rows) == 2
    assert rows[0]["important_fraction"] >= 0


def test_fig11_rows():
    from repro.experiments import fig11_queue_behavior as exp

    result = exp.run(MICRO, thresholds=(200_000, 400_000))
    assert set(result) == {"fraction", "queues"}
    assert [r["threshold_kB"] for r in result["fraction"]] == [200, 400]
    assert {r["scheme"] for r in result["queues"]} == {"dctcp", "dctcp+tlt"}
    assert all(r["max_red_queue_kB"] <= r["max_queue_kB"] for r in result["queues"])


def test_fig13_rows():
    from repro.experiments import fig13_mixed_traffic as exp

    rows = exp.run(MICRO)
    assert len(rows) == 2
    assert all(r["answered"] == 152 for r in rows)


def _bespoke_point(module: str):
    """One cheap point of a module that builds its own network."""
    from repro.experiments import (
        ext_corruption,
        ext_incremental,
        fig12_redis_incast,
        fig13_mixed_traffic,
        fig14_incast_microbench,
    )

    return {
        "fig12": lambda: fig12_redis_incast.run_one("dctcp", True, 8, bursts=1),
        "fig13": lambda: fig13_mixed_traffic.run_one(),
        "fig14": lambda: fig14_incast_microbench.run_one("tcp", "tlt", 8, runs=1),
        "ext-incremental": lambda: ext_incremental._run("isolated", MICRO),
        "ext-corruption": lambda: ext_corruption._run(1e-3, MICRO),
    }[module]


@pytest.mark.parametrize("audit", ["1", "0"])
@pytest.mark.parametrize(
    "module", ["fig12", "fig13", "fig14", "ext-incremental", "ext-corruption"])
def test_bespoke_modules_audit_every_network(module, audit, monkeypatch, tmp_path):
    # These modules build their own networks, so --audit reaches them
    # only if they attach the shared auditor themselves: the one every
    # other run gets, with the dump path of the CI artifact upload,
    # final-checked once per network.
    from repro.audit import Auditor
    from repro.net.topology import Network

    dump = str(tmp_path / "audit_dump.json")
    monkeypatch.setenv("TLT_AUDIT", audit)
    monkeypatch.setenv("TLT_AUDIT_DUMP", dump)
    networks, installed, final_checked = [], [], []

    def recording(cls, name, record):
        original = getattr(cls, name)

        def wrapper(self, *args):
            record.append(self)
            return original(self, *args)

        monkeypatch.setattr(cls, name, wrapper)

    recording(Network, "__init__", networks)
    recording(Auditor, "install", installed)
    recording(Auditor, "final_check", final_checked)
    assert _bespoke_point(module)()
    assert networks
    if audit == "0":
        assert installed == final_checked == []
        return
    assert [auditor.net for auditor in installed] == networks
    assert final_checked == installed
    assert all(auditor.config.dump_path == dump for auditor in installed)
    assert all(auditor.checks_run >= 2 for auditor in installed)


def test_fig16_rows():
    from repro.experiments import fig16_delivery_cdf as exp

    rows = exp.run(MICRO)
    assert {r["scheme"] for r in rows} == {"dctcp", "dctcp+tlt"}
    assert all(r["p50_us"] > 0 for r in rows)


def test_fig18_rows():
    from repro.experiments import fig18_incast_degree as exp

    rows = exp.run(MICRO, degrees=(2,), transports=("tcp",))
    assert len(rows) == 2


def test_table1_rows():
    from repro.experiments import table1_important_loss as exp

    rows = exp.run(MICRO, thresholds=(400_000,), shares=(0.05,),
                   transports=("dctcp",), include_stress=False)
    assert len(rows) == 1
    assert rows[0]["important_loss_rate"] >= 0


def test_ext_periodic_n_rows():
    from repro.experiments import ext_periodic_n as exp

    rows = exp.run(MICRO, ns=(None, 96))
    assert [r["periodic_n"] for r in rows] == ["off", 96]


def test_ext_corruption_rows():
    from repro.experiments import ext_corruption as exp

    rows = exp.run(MICRO, rates=(0.0, 1e-3))
    assert len(rows) == 2
    assert rows[0]["corrupted_green"] == 0


def test_fig12_single_point():
    from repro.experiments import fig12_redis_incast as exp

    row = exp.run_one("dctcp", tlt=True, requests=8, bursts=1)
    assert row["answered"] == 8
    assert row["timeouts"] == 0


def test_fig14_single_point():
    from repro.experiments import fig14_incast_microbench as exp

    row = exp.run_one("dctcp", "tlt", flows=8, runs=1)
    assert row["answered"] == 8
    assert row["p99_ms"] > 0


# -- every registry module, with the runs themselves stubbed ------------------

#: Points per ``run_grid`` call of every module that goes through the
#: job runner, one call per panel (ext-faults' chaos panel is one point
#: with a schedule per seed).
GRIDS = {
    "fig01": [1], "fig02": [2], "fig05": [12], "fig06": [14], "fig07": [12],
    "fig08": [10], "fig09": [24], "fig10": [6], "fig11": [4, 2], "fig15": [30],
    "fig16": [2], "fig17": [3], "fig18": [20], "table1": [16],
    "ext-periodic-n": [5], "ext-faults": [6, 1], "ext-multipath": [6, 6],
    "ext-policies": [10], "service-slo": [4, 4],
}


def _point_functions(module: str):
    """The per-point function(s) of a module that keeps its own run loop,
    each with one cheap real call of it."""
    from repro.experiments import fig14_incast_microbench as fig14

    return {
        "fig12": {"run_one": _bespoke_point("fig12")},
        "fig13": {"run_one": _bespoke_point("fig13")},
        "fig14": {"run_one": _bespoke_point("fig14"),
                  "cdf_one": lambda: fig14.cdf_one("tcp", "tlt", 8)},
        "ext-incremental": {"_run": _bespoke_point("ext-incremental")},
        "ext-corruption": {"_run": _bespoke_point("ext-corruption")},
        "ext-policies": {"fig13_run_one": _bespoke_point("fig13")},
    }.get(module, {})


@pytest.fixture(scope="module")
def real_results():
    """One real run of each kind, for reducers to be applied to."""
    from repro.experiments.service_slo import service_spec

    plain = ScenarioConfig(transport="dctcp", tlt=True, scale=MICRO, audit=False)
    service = ScenarioConfig(
        transport="dctcp", scale=MICRO, audit=False, enable_background=False,
        enable_incast=False, service={**service_spec(20_000.0, MICRO.num_hosts), "requests": 20})
    return {False: run_scenario(plain), True: run_scenario(service)}


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_module_runs_one_grid_per_panel_and_fills_its_tables(name, real_results, monkeypatch):
    from repro.experiments import common, ext_shard_scale

    module = importlib.import_module(EXPERIMENTS[name])
    calls = []

    def run_jobs(jobs):
        # A real row of the job's reducer, without the job's simulation
        # (and with timeouts: fig02's ratio is over a non-zero baseline).
        calls.append(jobs)
        rows = [resolve_metrics(job.metrics)(real_results[job.config.service is not None])
                for job in jobs]
        for row in rows:
            if "timeouts_per_1k" in row:
                row["timeouts_per_1k"] = 1.0
        return [JobResult(job.index, row=row) for job, row in zip(jobs, rows)]

    monkeypatch.setattr(common, "run_jobs", run_jobs)
    for function, real_call in _point_functions(name).items():
        point = real_call()
        monkeypatch.setattr(module, function, lambda *args, _point=point, **kwargs: dict(_point))
    manifest = {**real_results[False].manifest, "shards": 2,
                "shard": {"windows": 3, "messages": 5, "cpu_s": [0.1, 0.2]}}
    monkeypatch.setattr(ext_shard_scale, "run_scenario", lambda config: SimpleNamespace(
        manifest=manifest, duration_ns=1, net=real_results[False].net))

    seeds = (1, 2)
    result = module.run(MICRO, seeds)

    assert [len(jobs) for jobs in calls] == [points * len(seeds) for points in GRIDS.get(name, [])]
    assert all(sorted({job.seed for job in jobs}) == [1, 2] for jobs in calls)
    parts = result if isinstance(result, dict) else {"": result}
    assert list(parts) == list(module.TABLES)
    for part, (_title, columns) in module.TABLES.items():
        assert parts[part], (name, part)
        present = {key for row in parts[part] for key in row}
        assert set(columns) <= present, (name, part, set(columns) - present)
