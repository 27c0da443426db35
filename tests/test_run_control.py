"""Run control: what a run's identity is made of, and what it is not.

The cache key and the telemetry run id are identity: a refactor of how
run control is read must leave both byte-identical, so they are pinned
here (captured at e55a876, before ``run_control`` existed).
"""

import json

import pytest

from repro.experiments import cache
from repro.experiments.parallel import Job
from repro.experiments.scale import TINY
from repro.experiments.scenarios import ScenarioConfig, _telemetry_run_id

FAULTS = {"events": [{"time_ns": 1_000, "kind": "link_down", "target": "tor0:0"}]}

#: Shards, telemetry and a checkpoint are how a run is executed or
#: watched, not what it simulates: they share the plain run's key.
PLAIN_KEY = "38dc212b241a61a594e2e36d8a1c05811de3c28d2d9628b46ab19bec0fc17a07"

#: field values -> (Job.cache_key(), _telemetry_run_id()).
IDENTITY_PINS = {
    "plain": ({}, PLAIN_KEY, "dctcp_tlt_s3_dc03355b"),
    "shards": ({"shards": 2}, PLAIN_KEY, "dctcp_tlt_s3_7fed5311"),
    "audit": (
        {"audit": True},
        "efd9f657f792b8824878ba73b88dcb31b8b1cf320abe1e25f30255c77e6ed6fc",
        "dctcp_tlt_s3_59a934c5",
    ),
    "faults": (
        {"faults": FAULTS},
        "df3d998f58ffd7a6ea651b8a5c53073496c906cfc867e9bf28c858a8a509bf53",
        "dctcp_tlt_s3_b594ca36",
    ),
    "telemetry": (
        {"telemetry": {"out_dir": "/tmp/tele", "interval_ns": 50_000}},
        PLAIN_KEY,
        "dctcp_tlt_s3_dc03355b",
    ),
    "checkpoint": ({"checkpoint": "/tmp/ck"}, PLAIN_KEY, "dctcp_tlt_s3_434e7de1"),
}


def _config(**fields):
    return ScenarioConfig(transport="dctcp", tlt=True, scale=TINY, seed=3, **fields)


@pytest.fixture
def pinned_code_version(monkeypatch):
    # The key mixes in the code version (git HEAD); fix it.
    monkeypatch.setattr(cache, "_code_version_memo", "pinned")


@pytest.mark.parametrize("name", sorted(IDENTITY_PINS))
def test_cache_key_and_telemetry_run_id_are_pinned(name, pinned_code_version):
    fields, cache_key, run_id = IDENTITY_PINS[name]
    config = _config(**fields)
    assert Job(0, config, config.seed).cache_key() == cache_key
    assert _telemetry_run_id(config) == run_id


def test_cache_key_folds_the_fault_file_of_the_environment(
        tmp_path, monkeypatch, pinned_code_version):
    path = tmp_path / "faults.json"
    path.write_text(json.dumps(FAULTS))
    monkeypatch.setenv("TLT_FAULTS", str(path))
    config = _config()
    # The spec, not the path: the same key as the explicit field.
    assert Job(0, config, config.seed).cache_key() == IDENTITY_PINS["faults"][1]
    # An observation does not name its files after how it was asked for.
    assert _telemetry_run_id(config) == IDENTITY_PINS["plain"][2]
