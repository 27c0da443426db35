"""Micro-scale smoke tests for the experiment modules.

Each module's ``run()`` must produce structurally valid rows at a
minimal scale, and each of its ``CLAIMS`` a verdict on them
(``tlt-experiment all`` runs them at full scale)."""

import importlib
import json
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.experiments.common import check_claims, pick, run_grid
from repro.experiments.parallel import (
    Job,
    JobResult,
    metrics_reference,
    resolve_metrics,
    run_jobs,
)
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


def _bespoke_job(module: str) -> Job:
    """One cheap point of a module with a workload of its own, as a job."""
    from repro.experiments import (
        ext_corruption,
        ext_incremental,
        fig12_redis_incast as fig12,
        fig13_mixed_traffic as fig13,
        fig14_incast_microbench as fig14,
    )
    from repro.experiments.ext_faults import corruption_spec
    from repro.experiments.testbed import paper_testbed

    fabric = ScenarioConfig(transport="dctcp", tlt=True, scale=MICRO)
    config, reducer, traffic = {
        "fig12": (paper_testbed(transport="dctcp", tlt=True), fig12.burst_metrics,
                  fig12.RequestBursts(8, bursts=1)),
        "fig13": (paper_testbed(), fig13.mixed_metrics, fig13.CacheWithBackground()),
        "fig14": (fig14.scheme_config("tcp", "tlt"), fig14.incast_metrics,
                  fig14.IncastGets(8, runs=1)),
        "ext-incremental": (fabric, ext_incremental.deployment_metrics,
                            ext_incremental.MixedDeployment("isolated")),
        "ext-corruption": (replace(fabric, faults=corruption_spec(MICRO, 1e-3)),
                           ext_corruption.corruption_metrics, ext_corruption.IncastOnly()),
    }[module]
    return Job(0, config, 1, metrics_reference(reducer), traffic)


def _bespoke_point(module: str, jobs: int = 1):
    """That point's row, through the job runner (``jobs`` > 1: a pool worker)."""
    [result] = run_jobs([_bespoke_job(module)], jobs_n=jobs, use_cache=False)
    assert result.ok, result.error
    return result.row


#: fig14's reducer also carries panel (c)'s columns.
CDF_KEYS = {f"cdf_p{p}_ms" for p in (50, 90, 96, 99, 100)}

#: One MICRO-scale row per module above, captured while each still
#: assembled its own run: handing the workload to run_scenario, and then
#: the job to the job runner, moved no number.
PINNED_ROWS = {
    "fig12": {"p99_ms": 0.069796, "max_ms": 0.069838, "timeouts": 0.0, "answered": 8},
    "fig13": {"fg_p99_ms": 4.234969980000001, "bg_goodput_gbps": 25.72489953220878,
              "timeouts": 35.0, "answered": 152},
    "fig14": {"p99_ms": 0.061293400000000005, "max_ms": 0.061334, "timeouts": 0.0,
              "answered": 8},
    "ext-incremental": {"tlt_fg_p99_ms": 0.021962, "legacy_fg_p99_ms": 0.047396,
                        "tlt_timeouts": 0.0, "legacy_timeouts": 0.0, "drops_red": 0.0},
    "ext-corruption": {"fg_p99_ms": 0.0475385, "timeouts_per_1k": 0.0,
                       "corrupted_green": 0.0, "incomplete": 0.0},
}


@pytest.mark.parametrize("module", list(PINNED_ROWS))
def test_workload_modules_keep_their_pinned_rows(module):
    row = _bespoke_point(module)
    assert {key: row[key] for key in PINNED_ROWS[module]} == PINNED_ROWS[module]
    assert set(row) - set(PINNED_ROWS[module]) == (CDF_KEYS if module == "fig14" else set())


def test_ext_incremental_rows_are_the_same_on_both_backends(monkeypatch):
    """ext-incremental changes every switch after build through
    Switch.reconfigure, which builds the compiled kernel anew: its three
    deployments give the same rows on the compiled kernels as on pure."""
    from repro.experiments import ext_incremental
    from repro.sim import backend

    if not backend.compiled_available():
        pytest.skip("compiled backend not built")
    monkeypatch.setenv("TLT_AUDIT", "0")  # an auditor would unbind the switch kernels
    rows = {}
    for name in ("pure", "compiled"):
        backend.set_backend(name)
        try:
            rows[name] = ext_incremental.run("tiny")
        finally:
            backend.set_backend(None)
    assert rows["compiled"] == rows["pure"]
    assert len({row["drops_red"] for row in rows["pure"]}) == 3  # three distinct switch setups


WORKLOAD_MODULES = ["fig12", "fig13", "fig14", "ext-incremental", "ext-corruption"]

#: Corruption on the testbed's one switch, for the three star modules.
STAR_FAULTS = {"events": [{"time_ns": 0, "kind": "corruption_on", "target": "tor0",
                           "params": {"model": "bernoulli", "rate": 0.01}}]}

#: module, audit, faults, telemetry, jobs; the audit-only ids are the
#: original ones, and one case runs in a pool worker.
CONTROLS = [(module, audit, faults, telemetry, 1)
            for module in WORKLOAD_MODULES for audit in ("1", "0")
            for faults in (False, True) for telemetry in (False, True)]
CONTROLS.append(("fig14", "1", True, True, 2))


@pytest.mark.parametrize(
    "module, audit, faults, telemetry, jobs", CONTROLS,
    ids=["-".join([m, a] + ["faults"] * f + ["telemetry"] * t + ["jobs2"] * (j > 1))
         for m, a, f, t, j in CONTROLS])
def test_bespoke_modules_audit_every_network(module, audit, faults, telemetry, jobs,
                                             monkeypatch, tmp_path):
    # Run control reaches these modules' runs as it reaches every other:
    # --audit (the shared auditor, with the dump path of the CI artifact
    # upload, final-checked once per network), --faults (the spec of the
    # environment, unless the module's config says its own, as
    # ext-corruption's does) and --telemetry (one stream per run, named
    # by a run id no other run shares); the manifest names the run. A
    # pool worker's run is seen through what it sends back and writes.
    from repro.audit import Auditor
    from repro.experiments.manifest import LOG
    from repro.faults.schedule import FaultController
    from repro.net.topology import Network

    dump = str(tmp_path / "audit_dump.json")
    monkeypatch.setenv("TLT_AUDIT", audit)
    monkeypatch.setenv("TLT_AUDIT_DUMP", dump)
    if faults:
        spec = tmp_path / "faults.json"
        if module.startswith("fig"):
            spec.write_text(json.dumps(STAR_FAULTS))
        else:
            spec.write_text((Path(__file__).parents[1] / "examples/faults_smoke.json").read_text())
        monkeypatch.setenv("TLT_FAULTS", str(spec))
    else:
        monkeypatch.delenv("TLT_FAULTS", raising=False)
    tele = tmp_path / "tele"
    if telemetry:
        monkeypatch.setenv("TLT_TELEMETRY", str(tele))
    else:
        monkeypatch.delenv("TLT_TELEMETRY", raising=False)
    networks, installed, final_checked, controllers = [], [], [], []

    def recording(cls, name, record):
        original = getattr(cls, name)

        def wrapper(self, *args, **kwargs):
            record.append(self)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)

    recording(Network, "__init__", networks)
    recording(Auditor, "install", installed)
    recording(Auditor, "final_check", final_checked)
    recording(FaultController, "__init__", controllers)
    LOG.clear()
    assert _bespoke_point(module, jobs)
    assert all(m["run_id"] and m["transport"] in ("tcp", "dctcp") and m["seed"] == 1
               for m in LOG)
    streams = sorted(path.name for path in tele.glob("run_*.jsonl"))
    if jobs > 1:
        [manifest] = LOG
        assert networks == []  # built in the worker, not here
        assert manifest["audit"] and manifest["faults"] and manifest["telemetry"]
        assert streams == [f"run_{manifest['run_id']}.jsonl"]
        return
    assert networks and len(LOG) == len(networks)
    if audit == "0":
        assert installed == final_checked == []
    else:
        assert [auditor.net for auditor in installed] == networks
        assert final_checked == installed
        assert all(auditor.config.dump_path == dump for auditor in installed)
        assert all(auditor.checks_run >= 2 for auditor in installed)
    if faults or module == "ext-corruption":
        assert [controller.net for controller in controllers] == networks
        assert all(m["faults"] for m in LOG)
    else:
        assert controllers == []
    if faults and module != "ext-corruption":
        assert all(net.stats.drops_fault > 0 for net in networks)
    if telemetry:
        assert streams == sorted(f"run_{m['run_id']}.jsonl" for m in LOG)
        assert len(set(streams)) == len(networks)
    else:
        assert streams == []


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
    from repro.experiments.testbed import paper_testbed

    [row] = run_grid([(paper_testbed(transport="dctcp", tlt=True), exp.RequestBursts(8, 1))],
                     (1,), exp.burst_metrics)
    assert row["answered"] == 8
    assert row["timeouts"] == 0


def test_fig14_single_point():
    from repro.experiments import fig14_incast_microbench as exp

    [row] = run_grid([(exp.scheme_config("dctcp", "tlt"), exp.IncastGets(8, runs=1))],
                     (1,), exp.incast_metrics)
    assert row["answered"] == 8 and row["timeouts"] == 0
    assert row["p99_ms"] > 0 and row["cdf_p100_ms"] == row["max_ms"]


# -- every registry module, with the runs themselves stubbed ------------------

#: Jobs per ``run_grid`` call of every module that goes through the job
#: runner (its points, but once per cache key: fig14's CDF panel's three
#: points are sweep points, so its 45 points are 42 jobs), one call per
#: panel or reducer (ext-faults' chaos panel is one point with a schedule
#: per seed).
GRIDS = {
    "fig01": [1], "fig02": [2], "fig05": [12], "fig06": [14], "fig07": [12],
    "fig08": [10], "fig09": [24], "fig10": [6], "fig11": [4, 2], "fig12": [20],
    "fig13": [2], "fig14": [42], "fig15": [30], "fig16": [2], "fig17": [3], "fig18": [20],
    "table1": [16], "ext-incremental": [3], "ext-periodic-n": [5], "ext-corruption": [5],
    "ext-faults": [6, 1], "ext-multipath": [6, 6], "ext-policies": [10, 5],
    "service-slo": [4, 4],
}


@pytest.fixture(scope="module")
def real_results():
    """One real run of each kind, for reducers to be applied to: the
    standard mix, a service run and, added on first use, one run per
    workload class (the first job that carries it)."""
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

    def result_for(job):
        if job.traffic is None:
            return real_results[job.config.service is not None]
        kind = type(job.traffic)
        if kind not in real_results:
            real_results[kind] = run_scenario(replace(job.config, seed=job.seed),
                                              replace(job.traffic))
        return real_results[kind]

    def run_jobs(jobs):
        # A real row of the job's reducer, without the job's simulation
        # (and with timeouts: fig02's ratio is over a non-zero baseline).
        calls.append(jobs)
        rows = [resolve_metrics(job.metrics)(result_for(job)) for job in jobs]
        for row in rows:
            if "timeouts_per_1k" in row:
                row["timeouts_per_1k"] = 1.0
        return [JobResult(job.index, row=row) for job, row in zip(jobs, rows)]

    monkeypatch.setattr(common, "run_jobs", run_jobs)
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
    # Every claim finds its rows and columns: a typo in a label or a
    # column name raises here, without a simulation.
    claims = check_claims(module, result)
    assert [c["claim"] for c in claims] == list(module.CLAIMS)
    assert all(c["verdict"] in ("✔", "✘") for c in claims), claims


def test_pick_wants_exactly_one_row():
    rows = [{"transport": "tcp", "tlt": False}, {"transport": "tcp", "tlt": True}]
    assert pick(rows, transport="tcp", tlt=True) is rows[1]
    with pytest.raises(LookupError, match="transport.*dctcp"):
        pick(rows, transport="dctcp")
    with pytest.raises(LookupError, match="2 rows match"):
        pick(rows, transport="tcp")
    with pytest.raises(LookupError):
        pick(rows, scheme="tlt")  # no row has the column
