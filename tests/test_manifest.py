"""The run manifest (repro.experiments.manifest): every run, through
whichever harness, ends in ``finish_run`` and gets one."""

import functools
import json

import pytest

from repro.experiments import manifest as run_manifest
from repro.experiments.cache import code_version
from repro.experiments.manifest import COST_FIELDS, LOG, SCHEMA
from repro.experiments.parallel import Job, run_jobs
from repro.experiments.runner import _footer
from repro.experiments.scale import Scale
from repro.experiments.scenarios import ScenarioConfig, UnsupportedModeError, run_scenario
from repro.sim import backend as backend_mod

from tests.test_experiment_modules import _bespoke_point

MICRO = Scale("micro", num_spines=1, num_tors=2, hosts_per_tor=2,
              bg_flows=6, incast_events=1, incast_flows_per_sender=2)
SERVICE = {"requests": 40, "rate_rps": 20_000.0,
           "tiers": [{"name": "cache", "servers": 2, "fanout": 2, "service_ns": 2_000}]}

BACKENDS = [
    "pure",
    pytest.param("compiled", marks=pytest.mark.skipif(
        not backend_mod.compiled_available(), reason="compiled backend not built")),
]


def _config(**overrides) -> ScenarioConfig:
    return ScenarioConfig(**{"transport": "dctcp", "tlt": True, "scale": MICRO,
                             "audit": False, **overrides})


@pytest.fixture
def backend(request):
    backend_mod.set_backend(request.param)
    yield request.param
    backend_mod.set_backend(None)


def _identity(manifest: dict) -> dict:
    return {k: v for k, v in manifest.items() if k not in COST_FIELDS}


# -- (a) every harness ends in finish_run and is counted once ----------------


HARNESSES = {
    "run_scenario": lambda: run_scenario(_config()),
    "service": lambda: run_scenario(
        _config(service=SERVICE, enable_background=False, enable_incast=False)),
    "sharded": lambda: run_scenario(_config(shards=2)),
    **{name: functools.partial(_bespoke_point, name)
       for name in ("fig12", "fig13", "fig14", "ext-incremental", "ext-corruption")},
}


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
@pytest.mark.parametrize("harness", list(HARNESSES))
def test_every_harness_returns_and_logs_one_manifest(harness, backend, monkeypatch):
    from repro.experiments import scenarios

    monkeypatch.setenv("TLT_SHARD_INLINE", "1")
    networks, built = [], []
    original_init = scenarios.Network.__init__
    original_build = run_manifest.build

    def init(self, *args):
        original_init(self, *args)
        networks.append(self)

    def build(*args):
        built.append(original_build(*args))
        return built[-1]

    monkeypatch.setattr(scenarios.Network, "__init__", init)
    monkeypatch.setattr(run_manifest, "build", build)
    LOG.clear()
    result = HARNESSES[harness]()

    assert len(LOG) == 1  # one run, one entry: shard workers' are merged
    manifest = LOG[0]
    assert manifest["schema"] == SCHEMA
    assert manifest["backend"] == backend
    assert manifest["wall_s"] > 0 and manifest["cpu_s"] >= 0
    assert manifest["events_per_s"] == pytest.approx(
        manifest["events"] / manifest["wall_s"], rel=1e-3)
    assert 0 <= manifest["collect_s"] <= manifest["wall_s"] and manifest["collected"] >= 0
    if harness == "sharded":
        assert result.manifest is manifest
        assert manifest["events"] == result.net.engine.events_processed
        assert manifest["shards"] == 2 and len(built) == len(networks) == 2
        shard = manifest["shard"]
        assert shard["windows"] > 0 and shard["messages"] > 0
        assert shard["events"] == [part["events"] for part in built]
        assert len(shard["wait_s"]) == len(shard["cpu_s"]) == 2
    else:
        assert built == [manifest] and len(networks) == 1
        assert manifest["events"] == networks[0].engine.events_processed > 0
        assert manifest["shards"] == 1 and "shard" not in manifest
        assert manifest["collect_s"] > 0  # the one pre-run collection, timed
    if harness in ("run_scenario", "service"):
        assert result.manifest is manifest
        assert manifest["run_id"].startswith("dctcp_tlt_s1_")
        assert manifest["flows"] == result.net.stats.flow_count() > 0


def test_a_run_that_ends_in_an_error_gets_no_manifest():
    from repro.experiments.scenarios import RunControl, build_network, finish_run

    LOG.clear()
    net = build_network(_config())
    assert finish_run(net, RunControl(), error=RuntimeError("drive failed")) is None
    assert not LOG


# -- (b) run_jobs ships manifests in place of (events, wall_s) ---------------


def test_run_jobs_ships_manifests_and_cached_rows_keep_their_provenance(tmp_path):
    jobs = [Job(i, _config(), seed) for i, seed in enumerate((1, 2))]

    LOG.clear()
    inline = run_jobs(jobs, jobs_n=1, use_cache=True, cache=_cache(tmp_path / "inline"))
    assert [r.manifest for r in inline] == list(LOG)  # logged once, by finish_run

    LOG.clear()
    pooled = run_jobs(jobs, jobs_n=2, use_cache=False)
    assert [r.manifest for r in pooled] == list(LOG)  # logged by the parent side
    assert [_identity(r.manifest) for r in pooled] == \
        [_identity(r.manifest) for r in inline]
    assert not any(r.cached for r in inline + pooled)

    LOG.clear()
    again = run_jobs(jobs, jobs_n=1, use_cache=True, cache=_cache(tmp_path / "inline"))
    assert [r.manifest for r in again] == list(LOG)
    for hit, produced in zip(again, inline):
        assert hit.cached and hit.row == produced.row
        assert hit.manifest == {**produced.manifest, "cached": True,
                                "code": code_version()}


def _cache(root):
    from repro.experiments.cache import ResultCache

    return ResultCache(root)


# -- (c) identity is what ran, not how ---------------------------------------


@pytest.mark.skipif(not backend_mod.compiled_available(), reason="compiled backend not built")
def test_identity_fields_are_equal_across_backends():
    manifests = {}
    for name in ("pure", "compiled"):
        backend_mod.set_backend(name)
        try:
            manifests[name] = run_scenario(_config()).manifest
        finally:
            backend_mod.set_backend(None)
    pure, compiled = (_identity(manifests[name]) for name in ("pure", "compiled"))
    assert pure.pop("backend") == "pure" and compiled.pop("backend") == "compiled"
    assert pure == compiled
    assert manifests["pure"]["events"] == manifests["compiled"]["events"]


def test_identity_fields_are_equal_across_shard_counts(monkeypatch):
    monkeypatch.setenv("TLT_SHARD_INLINE", "1")
    single = run_scenario(_config()).manifest
    monkeypatch.setenv("TLT_SHARDS", "2")  # as --shards sets it: not in the run id
    sharded = run_scenario(_config()).manifest
    assert single["shards"] == 1 and sharded["shards"] == 2
    assert sharded["events"] == single["events"]
    differing = {"shards", "shard"}
    assert {k: v for k, v in _identity(sharded).items() if k not in differing} == \
        {k: v for k, v in _identity(single).items() if k not in differing}
    # A request that cannot be honoured is refused, not run on one engine.
    with pytest.raises(UnsupportedModeError, match="topology other than leaf_spine"):
        run_scenario(_config(topology="fat_tree"))


# -- the experiment document and its footer ----------------------------------


def test_summarize_counts_cached_runs_with_their_producing_cost():
    run = {"backend": "compiled", "wall_s": 2.0, "cpu_s": 1.5, "events": 3_000_000,
           "peak_rss_mb": 40.0}
    hit = {**run, "backend": "pure", "cached": True, "code": "git-abc1234",
           "peak_rss_mb": 55.0}
    doc = run_manifest.summarize("figXX", [run, hit], "git-def5678", 2.5, 2)
    assert (doc["runs"], doc["cached_runs"], doc["events"]) == (2, 1, 6_000_000)
    assert doc["backend"] == "compiled+pure"
    assert doc["code"] == "git-abc1234+git-def5678"
    assert doc["events_per_s"] == 1_500_000 and doc["peak_rss_mb"] == 55.0
    assert doc["manifests"][0]["code"] == "git-def5678"  # executed here: stamped now
    assert (doc["elapsed_s"], doc["jobs"], doc["retries"]) == (2.5, 2, 0)
    assert _footer(doc) == (
        "[figXX: 2 runs (1 cached), compiled+pure, 6,000,000 events, 1,500,000 ev/s, "
        "4.0 s sim wall, 2.5 s elapsed at --jobs 2, peak 55 MB, git-abc1234+git-def5678]")
    assert ", 1 retried, peak" in _footer({**doc, "retries": 1})


def test_summarize_sums_what_the_collections_cost():
    run = {"backend": "pure", "wall_s": 1.0, "cpu_s": 1.0, "events": 10, "peak_rss_mb": 30.0}
    runs = [{**run, "collect_s": 0.002, "collected": 700},
            {**run, "collect_s": 0.003, "collected": 300}]
    doc = run_manifest.summarize("figXX", runs, "git-def5678", 2.0, 1)
    assert (doc["collect_s"], doc["collected"]) == (0.005, 1_000)


def test_a_cached_manifest_without_the_collection_counts_zero(tmp_path):
    """A cache hit written before ``collect_s`` existed: ``summarize``
    counts it 0, and the checker accepts the document that lists it."""
    from tests.test_telemetry import _load_checker

    run = {"backend": "pure", "wall_s": 1.0, "cpu_s": 1.0, "events": 10,
           "peak_rss_mb": 30.0}
    runs = [{**run, "cached": True}, {**run, "collect_s": 0.003, "collected": 300}]
    doc = run_manifest.summarize("figXX", runs, "git-def5678", 2.0, 1)
    assert (doc["collect_s"], doc["collected"]) == (0.003, 300)
    path = tmp_path / "figXX.manifest.json"
    path.write_text(json.dumps(doc))
    checker = _load_checker()
    assert checker.check_document(str(path)) == (2, [])
    runs[1]["collect_s"] = 2.0  # longer than its run
    path.write_text(json.dumps(run_manifest.summarize("figXX", runs, "git-def5678", 2.0, 1)))
    assert checker.check_document(str(path))[1]


def test_the_log_is_bounded():
    assert LOG.maxlen is not None
