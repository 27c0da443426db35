"""Every pair of run modes gives one fingerprint, or is refused up front.

One small lossy scenario (dctcp+TLT incast on a two-spine fabric) runs
under every pair of values of eight axes: backend, audit, telemetry,
``shards=2`` (inline), faults, admission, path selection and recovery
spec. The mode table (``scenarios.MODE_CONFLICTS``) says which pairs are
refused: each must raise :class:`UnsupportedModeError`, naming both
modes, before any network is built. Each supported pair must equal the
fingerprint of its cell's reference, the same simulated settings
(faults, admission, path selection, recovery) on the pure backend, one
engine and no observer. Only ``events`` may differ, and only under
audit or telemetry, whose ticks are engine events.

A service cell on the same fabric adds the checkpoint column: for every
axis value, the uninterrupted service run must equal its reference, and
a checkpointed run and its resume must equal it too, or be refused.

``tests/conftest.py`` audits every run, so the audit-off compiled cells
are the suite's runs of the C switch kernel.
"""

import functools
import itertools
import re
from dataclasses import replace

import pytest

from repro.experiments import scenarios
from repro.experiments.cache import ResultCache
from repro.experiments.ext_corruption import IncastOnly
from repro.experiments.parallel import Job, run_jobs
from repro.experiments.scale import Scale
from repro.experiments.scenarios import (
    MODE_CONFLICTS,
    ScenarioConfig,
    UnsupportedModeError,
    run_control,
    run_modes,
    run_scenario,
)
from repro.service import run as service_run
from repro.service.run import resume_service, service_fingerprint
from repro.sim import backend as backend_mod
from repro.sim import sharding
from repro.sim.checkpoint import run_path
from repro.sim.units import KB
from tests.test_determinism import digest

MODES = Scale("modes", num_spines=2, num_tors=2, hosts_per_tor=3, bg_flows=20,
              incast_events=2, incast_flows_per_sender=2)

#: A ToR uplink flaps during the incasts.
FAULTS = {"events": [
    {"time_ns": 250_000, "kind": "link_down", "target": "tor0:3"},
    {"time_ns": 1_000_000, "kind": "link_up", "target": "tor0:3"},
]}

SERVICE = {"requests": 40, "rate_rps": 20_000.0,
           "tiers": [{"name": "cache", "servers": 3, "fanout": 2, "service_ns": 2_000}]}

#: axis -> value name -> the config fields it sets ("backend" sets the
#: backend, "telemetry" a directory of the test's own).
AXES = {
    "backend": {"compiled": {}},
    "audit": {"on": {"audit": True}},
    "telemetry": {"on": {}},
    "shards": {"2": {"shards": 2}},
    "faults": {"link-flap": {"faults": FAULTS}},
    "admission": {"bshare": {"admission": "bshare"},
                  "adaptive-k": {"admission": "adaptive-k"}},
    "path_selection": {"flowlet": {"path_selection": "flowlet"}},
    "recovery": {"tlp": {"recovery": "tlp"}},
}
#: The axes that change what is simulated: a cell's reference keeps them.
SIMULATED = ("faults", "admission", "path_selection", "recovery")
#: The axes whose ticks are engine events.
OBSERVERS = ("audit", "telemetry")

VALUES = [(axis, value) for axis in AXES for value in AXES[axis]]
PAIRS = [(a, b) for a, b in itertools.combinations(VALUES, 2) if a[0] != b[0]]


def _config(settings, tmp_path=None, service=False) -> ScenarioConfig:
    """The scenario under ``settings`` ({axis: value}), every other mode off."""
    config = ScenarioConfig(
        transport="dctcp", tlt=True, scale=MODES, seed=2, enable_background=False,
        incast_flow_size=32 * KB, incast_flows_per_sender=4, buffer_per_port=30 * KB,
        audit=False, shards=1,
        service=SERVICE if service else None, enable_incast=not service)
    for axis, value in settings.items():
        config = replace(config, **AXES[axis][value])
    if "telemetry" in settings:
        config = replace(config, telemetry=str(tmp_path / "telemetry"))
    return config


@functools.lru_cache(maxsize=None)
def _reference(simulated: tuple, service: bool) -> dict:
    """The fingerprint of a cell's reference: its simulated settings on
    the pure backend, one engine, no observer."""
    backend_mod.set_backend("pure")
    try:
        result = run_scenario(_config(dict(simulated), service=service))
    finally:
        backend_mod.set_backend(None)
    return service_fingerprint(result) if service else digest(result)


def _refused(config, traffic=None, backend="pure") -> list:
    """The rows of the mode table the run is in both modes of."""
    modes = run_modes(config, run_control(config), traffic, backend)
    return [row for row in MODE_CONFLICTS if row[0] in modes and row[1] in modes]


def _no_network(config):
    raise AssertionError("a network was built before the refusal")


def _refuse_all_but_the_table(patch, backend: str) -> None:
    """Make building a network fail, and show the table ``backend``:
    a refusal needs no extension."""
    for module in (scenarios, service_run, sharding):
        patch.setattr(module, "build_network", _no_network)
    patch.setattr(scenarios, "current_backend", lambda: backend)


@pytest.fixture
def run_or_refuse(monkeypatch):
    """``run(config, backend)``: the run's result, or None once the table
    refused it, after checking that it raised before any network was built."""
    monkeypatch.setenv("TLT_SHARD_INLINE", "1")

    def run(config, backend):
        refused = _refused(config, backend=backend)
        if refused:
            with monkeypatch.context() as patch, pytest.raises(UnsupportedModeError) as error:
                _refuse_all_but_the_table(patch, backend)
                run_scenario(config)
            for first, second, _why in refused:
                assert f"{first} and {second} do not combine" in str(error.value)
            return None
        if backend == "compiled" and not backend_mod.compiled_available():
            pytest.skip("compiled backend not built")
        backend_mod.set_backend(backend)
        try:
            return run_scenario(config)
        finally:
            backend_mod.set_backend(None)

    return run


def _expected(settings, service=False) -> dict:
    simulated = tuple(sorted((axis, settings[axis]) for axis in SIMULATED if axis in settings))
    return _reference(simulated, service)


def _assert_matches(actual: dict, settings, service=False) -> None:
    expected = _expected(settings, service)
    if any(axis in settings for axis in OBSERVERS):
        actual, expected = dict(actual), dict(expected)
        del actual["events"], expected["events"]
    assert actual == expected


def test_the_scenario_is_lossy():
    reference = _expected({})
    assert reference["drops_red"] > 0 and reference["incomplete"] == 0
    assert _expected({"faults": "link-flap"}) != reference


@pytest.mark.parametrize("first, second", PAIRS,
                         ids=[f"{a}={va}-{b}={vb}" for (a, va), (b, vb) in PAIRS])
def test_every_pair_of_modes_gives_one_fingerprint(first, second, tmp_path, run_or_refuse):
    settings = dict([first, second])
    backend = "compiled" if "backend" in settings else "pure"
    result = run_or_refuse(_config(settings, tmp_path), backend)
    if result is not None:
        _assert_matches(digest(result), settings)


@pytest.mark.parametrize("axis, value", [(None, None)] + VALUES,
                         ids=["plain"] + [f"{axis}={value}" for axis, value in VALUES])
def test_the_checkpoint_column_resumes_bit_equal(axis, value, tmp_path, run_or_refuse):
    settings = {} if axis is None else {axis: value}
    backend = "compiled" if axis == "backend" else "pure"
    config = _config(settings, tmp_path, service=True)
    checkpointed = run_or_refuse(replace(config, checkpoint=str(tmp_path / "ck")), backend)
    if checkpointed is not None:
        saved = service_fingerprint(checkpointed)
        _assert_matches(saved, settings, service=True)
        path = run_path(str(tmp_path / "ck"), checkpointed.manifest["run_id"])
        assert service_fingerprint(resume_service(path)) == saved
    uninterrupted = run_or_refuse(config, backend)
    if uninterrupted is not None:
        _assert_matches(service_fingerprint(uninterrupted), settings, service=True)


#: How a row's mode is switched on, over a non-service leaf-spine run on
#: the pure backend: config fields, or the backend / a custom workload.
TRIGGERS = {
    "checkpoint": {"checkpoint": "ck"},
    "non-service run": {},
    "service": {"service": SERVICE},
    "telemetry": {"telemetry": "telemetry"},
    "faults": {"faults": FAULTS},
    "compiled backend": {"backend": "compiled"},
    "custom traffic": {"traffic": IncastOnly()},
    "shards > 1": {"shards": 2},
    "topology other than leaf_spine": {"topology": "star"},
    "admission controller": {"admission": "adaptive-k"},
}


@pytest.mark.parametrize("row", MODE_CONFLICTS,
                         ids=[f"{a} x {b}".replace(" ", "_") for a, b, _ in MODE_CONFLICTS])
def test_every_row_is_refused_before_a_network_or_the_cache(row, tmp_path, monkeypatch):
    fields = {**TRIGGERS[row[0]], **TRIGGERS[row[1]]}
    backend = fields.pop("backend", "pure")
    traffic = fields.pop("traffic", None)
    config = replace(_config({}, tmp_path), **fields)
    assert row in _refused(config, traffic, backend)

    _refuse_all_but_the_table(monkeypatch, backend)
    named = re.escape(f"{row[0]} and {row[1]} do not combine: {row[2]}")
    with pytest.raises(UnsupportedModeError, match=named) as error:
        run_scenario(config, traffic)
    assert isinstance(error.value, ValueError)
    # A cached run of the same key (run control is not in it) is not served.
    cache = ResultCache(tmp_path / "cache")
    job = Job(0, config, config.seed, traffic=traffic)
    cache.put(job.cache_key(), {"served": 1.0}, manifest={}, seed=config.seed)
    assert cache.get(job.cache_key()) is not None
    with pytest.raises(UnsupportedModeError, match=named):
        run_jobs([job], use_cache=True, cache=cache)
