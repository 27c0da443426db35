"""Specs: one parser, one error, before any network.

Every declarative spec of a run (faults, admission, path selection,
recovery, telemetry, checkpoint, service) is parsed where the run starts
(``run_control``, at the top of ``run_scenario`` and in ``run_jobs``
before the cache). A bad one is one :class:`SpecError` naming its family
and key path, raised before a network is built: never a silently
ignored key, and never whatever Python raises deep in ``engine.run``.
"""

import copy
import os
import random
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.experiments import parallel, scenarios
from repro.experiments.parallel import Job, run_jobs
from repro.experiments.scale import TINY
from repro.experiments.scenarios import ScenarioConfig, build_network, run_control, run_scenario
from repro.faults.schedule import FaultController, FaultSchedule
from repro.net.routing import path_spec
from repro.service import run as service_run
from repro.service.spec import ServiceSpec
from repro.sim import checkpoint, sharding
from repro.sim import backend as backend_mod
from repro.sim.checkpoint import CheckpointError
from repro.spec import SpecError, named
from repro.switchsim.policy import admission_spec
from repro.telemetry import TelemetryConfig
from repro.transport.recovery import RECOVERIES, RTO_MAX_NS


def _config(**fields) -> ScenarioConfig:
    return ScenarioConfig(transport="dctcp", tlt=True, scale=TINY, **fields)


def _faults(kind="link_down", target="tor0:0", **event):
    return {"faults": {"events": [{"time_ns": 5, "kind": kind, "target": target, **event}]}}


def _no_network(config):
    raise AssertionError("a network was built before the spec was refused")


@pytest.fixture
def no_network(monkeypatch):
    for module in (scenarios, service_run, sharding):
        monkeypatch.setattr(module, "build_network", _no_network)


#: id, config fields, the key path the SpecError names.
MALFORMED = [
    # Silently accepted before: the run simulated something else.
    ("fault-extra-key", _faults(tim_ns=5), "faults.events[0].tim_ns"),
    ("corruption-rate-misspelt",
     _faults("corruption_on", "tor0", params={"model": "bernoulli", "rte": 0.5}),
     "faults.events[0].params.rte"),
    ("degrade-factor-misspelt", _faults("link_degrade", params={"factr": 0.1}),
     "faults.events[0].params.factr"),
    ("link-down-with-params", _faults(params={"factor": 0.5}), "faults.events[0].params.factor"),
    # Failed inside engine.run, when the event fired.
    ("corruption-model-misspelt", _faults("corruption_on", "tor0", params={"model": "bernouli"}),
     "faults.events[0].params.model"),
    ("corruption-rate-not-a-number", _faults("corruption_on", "tor0", params={"rate": "x"}),
     "faults.events[0].params.rate"),
    ("corruption-rate-above-one", _faults("corruption_on", "tor0", params={"rate": 7}),
     "faults.events[0].params.rate"),
    ("degrade-factor-above-one", _faults("link_degrade", params={"factor": 3}),
     "faults.events[0].params.factor"),
    ("storm-duration-not-an-int", _faults("pfc_storm", params={"duration_ns": "x"}),
     "faults.events[0].params.duration_ns"),
    # Failed when the first flow opened.
    ("fixed-rto-not-an-int", {"recovery": {"name": "fixed-rto", "rto_ns": "x"}},
     "recovery.rto_ns"),
    ("fixed-rto-negative", {"recovery": {"name": "fixed-rto", "rto_ns": -5}}, "recovery.rto_ns"),
    ("fixed-rto-missing", {"recovery": {"name": "fixed-rto"}}, "recovery.rto_ns"),
    ("rto-min-zero", {"recovery": {"name": "rto", "min_ns": 0}}, "recovery.min_ns"),
    # Failed inside build_network.
    ("flowlet-unknown-param", {"path_selection": {"name": "flowlet", "bogus": 1}},
     "path_selection.bogus"),
    ("flowlet-gap-not-an-int", {"path_selection": {"name": "flowlet", "idle_gap_ns": "x"}},
     "path_selection.idle_gap_ns"),
    # Failed before the network, as whatever Python raised.
    ("fault-time-soon", {"faults": {"events": [{"time_ns": "soon", "kind": "link_down",
                                                "target": "tor0:0"}]}},
     "faults.events[0].time_ns"),
    ("fault-without-kind", {"faults": {"events": [{"time_ns": 5, "target": "tor0:0"}]}},
     "faults.events[0].kind"),
    ("fault-params-a-list", _faults(params=[1]), "faults.events[0].params"),
    ("fault-events-a-string", {"faults": {"events": "x"}}, "faults.events"),
    ("admission-unknown-param", {"admission": {"name": "bshare", "bogus": 1}}, "admission.bogus"),
    ("telemetry-interval-not-an-int", {"telemetry": {"interval_ns": "x"}},
     "telemetry.interval_ns"),
]


@pytest.mark.parametrize("backend", ["pure", "compiled"])
@pytest.mark.parametrize("fields, path", [row[1:] for row in MALFORMED],
                         ids=[row[0] for row in MALFORMED])
def test_a_malformed_spec_fails_before_the_network(fields, path, backend, no_network,
                                                   monkeypatch):
    # A refusal needs no extension: only the mode table asks the backend.
    monkeypatch.setattr(scenarios, "current_backend", lambda: backend)
    with pytest.raises(SpecError) as error:
        run_scenario(_config(**fields))
    assert error.value.path == path
    assert str(error.value).startswith(f"{path}: ")


def test_the_error_says_what_was_expected():
    with pytest.raises(SpecError) as error:
        run_control(_config(**{row[0]: row[1] for row in MALFORMED}["fault-time-soon"]))
    assert str(error.value) == "faults.events[0].time_ns: expected a non-negative int, got 'soon'"


def test_run_jobs_refuses_before_the_cache_and_any_worker(monkeypatch, tmp_path):
    def past_the_check(*args, **kwargs):
        raise AssertionError("run_jobs went past the spec check")

    monkeypatch.setattr(parallel.ResultCache, "get", past_the_check)
    monkeypatch.setattr(parallel, "_run_pool", past_the_check)
    monkeypatch.setattr(parallel, "_execute_inline", past_the_check)
    good = _config()
    bad = replace(good, recovery={"name": "rto", "min_ns": 0})
    with pytest.raises(SpecError, match=r"^recovery\.min_ns: "):
        run_jobs([Job(0, good, 1), Job(1, bad, 1)], jobs_n=2, use_cache=True,
                 cache=parallel.ResultCache(str(tmp_path)))


def test_an_unreadable_fault_file_is_a_spec_error(monkeypatch, tmp_path):
    monkeypatch.setenv("TLT_FAULTS", str(tmp_path / "missing.json"))
    with pytest.raises(SpecError, match=r"^faults: expected a readable JSON spec file"):
        run_control(_config())
    (tmp_path / "broken.json").write_text("{")
    monkeypatch.setenv("TLT_FAULTS", str(tmp_path / "broken.json"))
    with pytest.raises(SpecError, match=r"^faults: "):
        run_control(_config())


# -- Hypothesis: near-valid specs, round trips --------------------------------------

#: family (the config field) -> (a valid spec, its sites). A site is
#: ``(path to a dict in the spec, key, required, a wrong type, out of range)``.
FAMILIES = {
    "faults": ({"events": [{"time_ns": 100, "kind": "link_degrade", "target": "tor0:0",
                            "params": {"factor": 0.5}}]}, [
        (("events", 0), "time_ns", True, "soon", -1),
        (("events", 0), "kind", True, 7, "meteor_strike"),
        (("events", 0), "target", False, 5, None),
        (("events", 0, "params"), "factor", False, "x", 3),
    ]),
    "admission": ({"name": "bshare", "target_delay_ns": 50_000}, [
        ((), "name", True, 5, "no-such-policy"),
        ((), "target_delay_ns", False, "x", 0),
    ]),
    "path_selection": ({"name": "flowlet", "idle_gap_ns": 100_000, "weighted": False}, [
        ((), "name", True, 5, "per-packet-spray"),
        ((), "idle_gap_ns", False, 1.5, 0),
        ((), "weighted", False, 1, None),
    ]),
    "recovery": ({"name": "fixed-rto", "rto_ns": 160_000}, [
        ((), "name", True, ["fixed-rto"], "rack"),
        ((), "rto_ns", True, "x", RTO_MAX_NS + 1),
    ]),
    "telemetry": ({"out_dir": "telemetry-out", "interval_ns": 50_000}, [
        ((), "out_dir", False, 5, None),
        ((), "interval_ns", False, "x", 0),
    ]),
    "checkpoint": ({"dir": "checkpoints", "at_ns": 5}, [
        ((), "dir", True, 5, None),
        ((), "at_ns", False, "x", -1),
    ]),
    "service": ({"requests": 20, "process": "poisson",
                 "tiers": [{"name": "cache", "servers": 2, "fanout": 2}]}, [
        ((), "requests", False, "x", 0),
        ((), "process", False, 1, "uniform"),
        (("tiers", 0), "name", True, 5, None),
        (("tiers", 0), "fanout", False, "x", 3),
    ]),
}

MUTATIONS = ("drop", "rename", "retype", "out of range", "extra key")


@st.composite
def near_valid(draw):
    """``(family, spec)``: a valid spec with one thing wrong."""
    family = draw(st.sampled_from(sorted(FAMILIES)))
    valid, sites = FAMILIES[family]
    where, key, required, wrong_type, out_of_range = draw(st.sampled_from(sites))
    mutation = draw(st.sampled_from([m for m in MUTATIONS if (m != "drop" or required)
                                     and (m != "out of range" or out_of_range is not None)]))
    spec = copy.deepcopy(valid)
    target = spec
    for step in where:
        target = target[step]
    if mutation == "drop":
        del target[key]
    elif mutation == "rename":
        target[key + draw(st.sampled_from(["_", "s", "x"]))] = target.pop(key)
    elif mutation == "retype":
        target[key] = wrong_type
    elif mutation == "out of range":
        target[key] = out_of_range
    else:
        # "x_" keeps it off every builder's parameter list.
        extra = draw(st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", max_size=8))
        target["x_" + extra] = draw(
            st.one_of(st.integers(), st.text(max_size=3), st.booleans(), st.none()))
    return family, spec


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=near_valid())
def test_near_valid_specs_fail_before_the_network(case, no_network):
    family, spec = case
    fields = {family: spec}
    if family == "service":
        fields.update(enable_background=False, enable_incast=False)
    with pytest.raises(SpecError) as error:
        run_scenario(_config(**fields))
    assert error.value.path.startswith(family), str(error.value)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_the_near_valid_specs_start_from_valid_ones(family):
    run_control(_config(**{family: FAMILIES[family][0]}))


positive = st.integers(1, 10**9)
flowlet = st.fixed_dictionaries({"name": st.just("flowlet")},
                                optional={"idle_gap_ns": positive, "weighted": st.booleans()})
admission = st.one_of(
    st.sampled_from(["ch-static-k", "bshare", "fairq", "tiny-buffer", "adaptive-k"]),
    st.fixed_dictionaries({"name": st.just("bshare")}, optional={"target_delay_ns": positive}),
    st.fixed_dictionaries({"name": st.just("tiny-buffer")}, optional={"cap_bytes": positive}),
    st.fixed_dictionaries({"name": st.just("adaptive-k")}, optional={
        "interval_ns": positive, "increase": st.floats(0.5, 4), "decrease": st.floats(0.1, 1)}),
)
recovery = st.one_of(
    st.sampled_from(["rto", "tlp", {"name": "tlp"}]),
    st.fixed_dictionaries({"name": st.just("rto")},
                          optional={"min_ns": st.integers(1, RTO_MAX_NS)}),
    st.fixed_dictionaries({"name": st.just("fixed-rto"), "rto_ns": st.integers(1, RTO_MAX_NS)}),
)
event = st.one_of(
    st.fixed_dictionaries({"time_ns": st.integers(0, 10**9),
                           "kind": st.sampled_from(["link_down", "link_up", "link_restore"]),
                           "target": st.just("tor0:1")}),
    st.fixed_dictionaries({"time_ns": st.integers(0, 10**9), "kind": st.just("corruption_on"),
                           "target": st.just("tor0"),
                           "params": st.fixed_dictionaries({}, optional={
                               "model": st.just("bernoulli"), "rate": st.floats(0, 1)})}),
    st.fixed_dictionaries({"time_ns": st.integers(0, 10**9), "kind": st.just("pfc_storm"),
                           "target": st.just("tor1:0"),
                           "params": st.fixed_dictionaries({}, optional={
                               "duration_ns": positive, "pause_ns": positive})}),
)
tier = st.fixed_dictionaries({"servers": st.integers(3, 5)}, optional={
    "fanout": st.integers(1, 3), "max_bytes": st.integers(0, 10**6), "hedge_ns": positive,
    "workload": st.sampled_from(["cache_follower", "web_search"])})
service = st.fixed_dictionaries(
    {"tiers": st.lists(tier, min_size=1, max_size=3).map(
        lambda tiers: [{"name": f"t{n}", **t} for n, t in enumerate(tiers)])},
    optional={"requests": st.integers(1, 1000), "rate_rps": st.floats(1, 1e6),
              "process": st.sampled_from(["poisson", "lognormal"])})

#: family -> (a strategy of valid specs, the parser, the canonical form).
ROUND_TRIPS = {
    "admission": (admission, admission_spec, lambda parsed: parsed.to_spec()),
    "path_selection": (st.one_of(st.sampled_from(["static-hash", "wcmp", "flowlet"]), flowlet),
                       path_spec, lambda parsed: parsed.to_spec()),
    "recovery": (recovery, lambda spec: named("recovery", spec, RECOVERIES,
                                              skip=("transport",)),
                 lambda parsed: parsed.to_spec()),
    "faults": (st.lists(event, max_size=4).map(lambda events: {"events": events}),
               FaultSchedule.from_spec, FaultSchedule.to_spec),
    "telemetry": (st.one_of(st.just(True), st.text(min_size=1, max_size=5),
                            st.fixed_dictionaries({}, optional={"out_dir": st.text(max_size=5),
                                                                "interval_ns": positive})),
                  TelemetryConfig.from_spec, TelemetryConfig.to_spec),
    "checkpoint": (st.one_of(st.text(min_size=1, max_size=5), st.fixed_dictionaries(
        {"dir": st.text(min_size=1, max_size=5)}, optional={"at_ns": st.integers(0, 10**9)})),
        lambda spec: run_control(_config(checkpoint=spec)).checkpoint, lambda parsed: parsed),
    "service": (service, ServiceSpec.from_spec, ServiceSpec.to_spec),
}


@pytest.mark.parametrize("family", sorted(ROUND_TRIPS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_valid_specs_round_trip(family, data):
    strategy, parse, canonical = ROUND_TRIPS[family]
    form = canonical(parse(data.draw(strategy)))
    assert canonical(parse(form)) == form
    assert canonical(parse(copy.deepcopy(form))) == form


@pytest.fixture(scope="module")
def leaf_spine_net():
    return build_network(ScenarioConfig(scale=TINY))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**32 - 1))
def test_chaos_schedules_are_valid_by_construction(seed, leaf_spine_net):
    schedule = FaultSchedule.random(random.Random(seed), 2_000_000, leaf_spine_net)
    spec = schedule.to_spec()
    parsed = FaultSchedule.from_spec(spec)
    assert parsed == schedule and parsed.to_spec() == spec
    FaultController(leaf_spine_net, parsed)  # every target resolves on its network


# -- a fence: truncated checkpoints -------------------------------------------------


@pytest.fixture(scope="module")
def service_checkpoint(tmp_path_factory):
    """The bytes of a real mid-run service checkpoint (pure backend)."""
    directory = tmp_path_factory.mktemp("checkpoint")
    backend_mod.set_backend("pure")
    try:
        run_scenario(ScenarioConfig(
            transport="dctcp", scale=TINY, enable_background=False, enable_incast=False,
            service={"requests": 40, "rate_rps": 20_000.0,
                     "tiers": [{"name": "cache", "servers": 3, "fanout": 2}]},
            checkpoint=str(directory), audit=False))
    finally:
        backend_mod.set_backend(None)
    (path,) = directory.iterdir()
    return path.read_bytes(), directory


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_truncated_checkpoint_is_a_checkpoint_error(data, service_checkpoint):
    blob, directory = service_checkpoint
    size = data.draw(st.integers(0, len(blob) - 1))
    path = os.path.join(str(directory), f"prefix_{size}.pkl")
    with open(path, "wb") as handle:
        handle.write(blob[:size])
    try:
        with pytest.raises(CheckpointError):
            checkpoint.load(path)
    finally:
        os.remove(path)
