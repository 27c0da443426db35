"""Engine checkpoint/restore: pickling gate, key check, bit-identity."""

import os
import pickle

import pytest

from repro.experiments.scale import TINY
from repro.experiments.scenarios import (
    EcnStreamFactory,
    ScenarioConfig,
    build_network,
)
from repro.service.run import resume_service, service_fingerprint
from repro.sim import checkpoint
from repro.sim.checkpoint import CheckpointError, default_path


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
    path = default_path(str(tmp_path))
    checkpoint.save(path, net, extra={"tag": 7}, key="k1")
    payload = checkpoint.load(path, expect_key="k1")
    restored = payload["state"]["net"]
    assert payload["sim_time_ns"] == 1_000
    assert payload["state"]["extra"] == {"tag": 7}
    assert restored.engine.now == net.engine.now
    assert len(restored.hosts) == len(net.hosts)


def test_key_mismatch_rejected(tmp_path):
    net = build_network(_config())
    path = default_path(str(tmp_path))
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


def test_checkpoint_restore_reproduces_uninterrupted_run(tmp_path):
    """The PR's determinism gate: run A (uninterrupted), run B (same
    config, checkpointed mid-run), run C (restored from B's file and
    driven to completion) — all three fingerprints are bit-equal."""
    from repro.experiments.scenarios import run_scenario

    fp_a = service_fingerprint(run_scenario(_config()))
    fp_b = service_fingerprint(
        run_scenario(_config(checkpoint=str(tmp_path))))
    path = default_path(str(tmp_path))
    assert os.path.exists(path)
    fp_c = service_fingerprint(resume_service(path))
    assert fp_a == fp_b
    assert fp_a == fp_c


def test_resume_checks_scenario_key(tmp_path):
    from repro.experiments.scenarios import run_scenario

    run_scenario(_config(checkpoint=str(tmp_path)))
    with pytest.raises(CheckpointError, match="key"):
        resume_service(default_path(str(tmp_path)), expect_key="wrong")


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
