"""Engine checkpoint/restore: pickling gate, key check, bit-identity."""

import os
import pickle
from dataclasses import replace

import pytest

from repro.experiments.common import run_grid
from repro.experiments.scale import TINY
from repro.experiments.scenarios import (
    EcnStreamFactory,
    ScenarioConfig,
    build_network,
    run_scenario,
    scenario_run_id,
)
from repro.service.run import resume_service, service_fingerprint
from repro.sim import checkpoint
from repro.sim.checkpoint import CheckpointError, run_path


@pytest.fixture(autouse=True)
def _pure_backend():
    """Checkpointing is pure-backend-only by contract; pin the backend
    so this module stays green when TLT_BACKEND=compiled (the compiled
    CI job runs the whole tier-1 suite). The refusals of checkpoint x
    compiled/telemetry/faults are rows of the mode table, run by
    tests/test_run_modes.py."""
    from repro.sim import backend

    backend.set_backend("pure")
    yield
    backend.set_backend(None)


SERVICE_SPEC = {
    "requests": 60,
    "rate_rps": 20_000.0,
    "tiers": [
        {"name": "cache", "servers": 3, "fanout": 2, "service_ns": 2_000},
    ],
}


def _config(**overrides) -> ScenarioConfig:
    base = dict(transport="dctcp", scale=TINY, service=SERVICE_SPEC,
                enable_background=False, enable_incast=False, seed=1)
    base.update(overrides)
    return ScenarioConfig(**base)


def test_save_load_round_trip(tmp_path):
    net = build_network(_config())
    net.engine.run(until=1_000)
    path = run_path(str(tmp_path), "r1")
    checkpoint.save(path, net, extra={"tag": 7}, key="k1")
    payload = checkpoint.load(path, expect_key="k1")
    restored = payload["state"]["net"]
    assert payload["sim_time_ns"] == 1_000
    assert payload["state"]["extra"] == {"tag": 7}
    assert restored.engine.now == net.engine.now
    assert len(restored.hosts) == len(net.hosts)


def test_key_mismatch_rejected(tmp_path):
    net = build_network(_config())
    path = run_path(str(tmp_path), "r1")
    checkpoint.save(path, net, key="expected")
    with pytest.raises(CheckpointError, match="key"):
        checkpoint.load(path, expect_key="different")
    # No expectation: loads fine.
    assert checkpoint.load(path)["key"] == "expected"


def test_corrupt_schema_rejected(tmp_path):
    path = os.path.join(str(tmp_path), "bogus.pkl")
    with open(path, "wb") as handle:
        pickle.dump({"schema": 999}, handle)
    with pytest.raises(CheckpointError, match="schema"):
        checkpoint.load(path)


def test_dcqcn_network_is_picklable():
    """The RED marking streams used to be built by a local closure,
    which made the whole RoCE family un-checkpointable.
    EcnStreamFactory is module-level, so the object graph pickles."""
    net = build_network(_config(transport="dcqcn"))
    net.engine.run(until=1_000)
    clone = pickle.loads(pickle.dumps(net))
    assert clone.engine.now == net.engine.now


def test_ecn_stream_factory_matches_closure_semantics():
    factory = EcnStreamFactory(5_000, 200_000, 0.01, seed=9)
    a1, a2, b = factory("tor0"), factory("tor0"), factory("tor1")
    assert a1.k_min == 5_000 and a1.k_max == 200_000 and a1.p_max == 0.01
    # Same name -> identical stream; different name -> diverges.
    draws = [a1.rng.random() for _ in range(4)]
    assert [a2.rng.random() for _ in range(4)] == draws
    assert [b.rng.random() for _ in range(4)] != draws


#: A hedged two-tier service: the restore test's spec.
HEDGED_SPEC = {
    "requests": 150,
    "rate_rps": 30_000.0,
    "tiers": [
        {"name": "cache", "servers": 4, "fanout": 2, "service_ns": 2_000},
        {"name": "storage", "servers": 3, "fanout": 1,
         "workload": "web_server", "max_bytes": 8_000, "service_ns": 10_000,
         "hedge_ns": 2_000_000},
    ],
}


@pytest.mark.parametrize("transport, tlt", [("dctcp", False), ("dctcp", True), ("dcqcn", False)],
                         ids=["dctcp", "dctcp_tlt", "dcqcn"])
def test_checkpoint_restore_reproduces_uninterrupted_run(transport, tlt, tmp_path):
    """Run A (uninterrupted), run B (same config, checkpointed mid-run)
    and run C (restored from B's file and driven to completion) are
    bit-equal, audited (``tests/conftest.py``). dcqcn covers the
    per-switch RED streams (``EcnStreamFactory``)."""
    config = _config(transport=transport, tlt=tlt, service=HEDGED_SPEC)
    fp_a = service_fingerprint(run_scenario(config))
    checkpointed = replace(config, checkpoint=str(tmp_path))
    fp_b = service_fingerprint(run_scenario(checkpointed))
    path = run_path(str(tmp_path), scenario_run_id(checkpointed))
    fp_c = service_fingerprint(resume_service(path))
    assert fp_a == fp_b
    assert fp_a == fp_c


def test_a_service_grid_keeps_one_checkpoint_per_run(tmp_path, monkeypatch):
    """``--checkpoint DIR`` over a grid: each run saves its own file,
    named by its run id, and each resumes to its own uninterrupted run."""
    configs = [_config(seed=1), _config(seed=2)]
    directory = str(tmp_path / "ck")
    with monkeypatch.context() as patch:
        patch.setenv("TLT_CHECKPOINT", directory)
        run_grid(configs, None)
    assert len(os.listdir(directory)) == 2
    for config in configs:
        resumed = resume_service(run_path(directory, scenario_run_id(config)))
        assert service_fingerprint(resumed) == service_fingerprint(run_scenario(config))


def test_resume_checks_scenario_key(tmp_path):
    config = _config(checkpoint=str(tmp_path))
    run_scenario(config)
    with pytest.raises(CheckpointError, match="key"):
        resume_service(run_path(str(tmp_path), scenario_run_id(config)), expect_key="wrong")


def test_cache_key_excludes_checkpoint(tmp_path):
    """Satellite (a): the checkpoint directory is execution strategy,
    not result identity — same rule as telemetry and shards."""
    from repro.experiments.parallel import Job

    plain = Job(0, _config(), 1).cache_key()
    with_ck = Job(0, _config(checkpoint=str(tmp_path)), 1).cache_key()
    with_at = Job(0, _config(
        checkpoint={"dir": str(tmp_path), "at_ns": 123}), 1).cache_key()
    assert plain == with_ck == with_at
    # ...while actual scenario inputs still change the key.
    other = Job(0, _config(seed=2), 2).cache_key()
    assert other != plain
