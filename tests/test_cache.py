"""Tests for the content-addressed experiment result cache."""

import json

import pytest

from repro.core.config import ClockingPolicy, TltConfig
from repro.experiments.cache import (
    ResultCache,
    code_version,
    encode_value,
    fingerprint,
)
from repro.experiments.common import run_grid
from repro.experiments.parallel import execution
from repro.experiments.scale import Scale
from repro.experiments.scenarios import ScenarioConfig

FAST = Scale("fast-cache", 1, 2, 2, 4, 1, 1)


def config(**overrides) -> ScenarioConfig:
    return ScenarioConfig(transport="tcp", scale=FAST, **overrides)


# -- fingerprinting ----------------------------------------------------------


def test_fingerprint_is_deterministic():
    assert fingerprint(config(), 1) == fingerprint(config(), 1)


def test_fingerprint_sensitive_to_config_seed_metrics_and_version():
    base = fingerprint(config(), 1, metrics=None, version="v1")
    assert fingerprint(config(load=0.5), 1, version="v1") != base
    assert fingerprint(config(), 2, version="v1") != base
    assert fingerprint(config(), 1, metrics="m:f", version="v1") != base
    assert fingerprint(config(), 1, version="v2") != base


def test_fingerprint_sees_nested_dataclasses_and_enums():
    adaptive = config(tlt=True, tlt_config=TltConfig(clocking=ClockingPolicy.ADAPTIVE))
    mtu = config(tlt=True, tlt_config=TltConfig(clocking=ClockingPolicy.ALWAYS_MTU))
    assert fingerprint(adaptive, 1) != fingerprint(mtu, 1)


def test_fingerprint_sees_recovery_params():
    a = config(recovery={"name": "rto", "min_ns": 200_000})
    b = config(recovery={"name": "rto", "min_ns": 100_000})
    assert fingerprint(a, 1) != fingerprint(b, 1)
    assert fingerprint(a, 1) == fingerprint(config(recovery={"min_ns": 200_000, "name": "rto"}), 1)
    assert fingerprint(config(recovery="tlp"), 1) != fingerprint(config(), 1)


def test_encode_value_canonicalises():
    assert encode_value({"b": 1, "a": 2}) == {"a": 2, "b": 1}
    assert encode_value((1, 2)) == [1, 2]
    assert encode_value(frozenset({"y", "x"})) == ["x", "y"]
    assert encode_value(ClockingPolicy.ADAPTIVE) == \
        {"__enum__": "ClockingPolicy", "value": "adaptive"}
    encoded = encode_value(TltConfig())
    assert encoded["__dataclass__"] == "TltConfig"
    assert encoded["fields"]["periodic_n"] == 96


# -- artifact store ----------------------------------------------------------


def test_cache_put_get_round_trip(tmp_path):
    cache = ResultCache(tmp_path)
    key = fingerprint(config(), 1)
    path = cache.put(key, {"fct": 1.25}, seed=1, manifest={"events": 100})
    assert path.exists()
    artifact = cache.get(key)
    assert artifact["row"] == {"fct": 1.25}
    # The producing run's manifest, stamped with the code version.
    assert artifact["manifest"] == {"events": 100, "code": code_version()}
    assert len(cache) == 1
    assert cache.hits == 1


def test_cache_miss_and_corrupt_artifacts_return_none(tmp_path):
    cache = ResultCache(tmp_path)
    key = fingerprint(config(), 1)
    assert cache.get(key) is None
    path = cache.path_for(key)
    path.parent.mkdir(parents=True)
    path.write_text("{not json")
    assert cache.get(key) is None
    path.write_text(json.dumps({"key": "wrong", "row": {}}))
    assert cache.get(key) is None
    path.write_text(json.dumps({"key": key}))  # truncated: no row
    assert cache.get(key) is None
    path.write_text(json.dumps({"key": key, "row": {}}))  # no manifest
    assert cache.get(key) is None
    assert cache.misses == 5


def test_cache_clear(tmp_path):
    cache = ResultCache(tmp_path)
    for seed in (1, 2, 3):
        cache.put(fingerprint(config(), seed), {"v": float(seed)}, manifest={})
    assert len(cache) == 3
    assert cache.clear() == 3
    assert len(cache) == 0


# -- end-to-end through run_grid ---------------------------------------------


def test_second_run_served_from_cache(tmp_path, monkeypatch):
    cache_dir = str(tmp_path / "cache")
    with execution(jobs=1, use_cache=True, cache_dir=cache_dir):
        first = run_grid([config()], (1, 2))

    def boom(cfg):
        raise AssertionError("cache miss: run_scenario should not execute")

    monkeypatch.setattr("repro.experiments.parallel.run_scenario", boom)
    with execution(jobs=1, use_cache=True, cache_dir=cache_dir):
        second = run_grid([config()], (1, 2))
    assert second == first


def test_config_change_invalidates_cache(tmp_path, monkeypatch):
    cache_dir = str(tmp_path / "cache")
    with execution(jobs=1, use_cache=True, cache_dir=cache_dir):
        run_grid([config()], (1,))

    def boom(cfg):
        raise AssertionError("executed")

    monkeypatch.setattr("repro.experiments.parallel.run_scenario", boom)
    with execution(jobs=1, use_cache=True, cache_dir=cache_dir):
        # Identical config: cache hit, boom never fires.
        run_grid([config()], (1,))
        # Any config change misses the cache and would execute.
        with pytest.raises(RuntimeError, match="every seed failed"):
            run_grid([config(load=0.45)], (1,))


def test_no_cache_context_skips_cache_entirely(tmp_path):
    cache_dir = tmp_path / "cache"
    with execution(jobs=1, use_cache=False, cache_dir=str(cache_dir)):
        run_grid([config()], (1,))
    assert not cache_dir.exists()
