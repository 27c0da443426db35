"""The recovery spec: its registry, its resolution, and who shares it."""

import re

import pytest

from repro.experiments.scale import Scale
from repro.experiments.scenarios import (
    ScenarioConfig,
    build_network,
    endpoint_settings,
    make_transport_config,
)
from repro.sim.units import MICROS, MILLIS
from repro.spec import SpecError
from repro.transport.base import FlowSpec, TransportConfig
from repro.transport.recovery import RECOVERIES, RTO_MAX_NS, Recovery, resolve_recovery
from repro.transport.registry import create_flow, resolve_config

@pytest.mark.parametrize("transport, expected", [
    ("tcp", Recovery("tcp", 4 * MILLIS)),
    ("dctcp", Recovery("dctcp", 4 * MILLIS)),
    ("dcqcn", Recovery("dcqcn", 4 * MILLIS, fixed=True)),
    ("dcqcn-sack", Recovery("dcqcn-sack", 4 * MILLIS, fixed=True)),
    ("irn", Recovery("irn", 1_930_000, fixed=True)),
    ("hpcc", Recovery("hpcc", 4 * MILLIS, fixed=True)),
])
def test_none_is_the_transports_default(transport, expected):
    assert resolve_recovery(None, transport) == expected
    assert make_transport_config(ScenarioConfig(transport=transport)).recovery == expected


@pytest.mark.parametrize("spec, expected", [
    ("rto", Recovery("dctcp", 4 * MILLIS)),
    ({"name": "rto", "min_ns": 200 * MICROS}, Recovery("dctcp", 200 * MICROS)),
    ("tlp", Recovery("dctcp", 4 * MILLIS, tlp=True)),
    ({"name": "tlp"}, Recovery("dctcp", 4 * MILLIS, tlp=True)),
    ({"name": "fixed-rto", "rto_ns": 160 * MICROS}, Recovery("dctcp", 160 * MICROS, fixed=True)),
])
def test_every_spec_form_resolves(spec, expected):
    assert resolve_recovery(spec, "dctcp") == expected


def test_the_estimator_follows_the_resolved_spec():
    adaptive = resolve_recovery({"name": "rto", "min_ns": 200 * MICROS}, "tcp").estimator()
    adaptive.on_rtt_sample(1 * MILLIS)
    assert adaptive.rto_min == 200 * MICROS and adaptive.base_rto > 1 * MILLIS
    fixed = resolve_recovery({"name": "fixed-rto", "rto_ns": 160 * MICROS}, "tcp").estimator()
    fixed.on_rtt_sample(1 * MILLIS)
    assert fixed.base_rto == fixed.current == 160 * MICROS and fixed.rto_max == RTO_MAX_NS


def test_an_instance_is_a_spec_error():
    resolved = resolve_recovery("tlp", "dctcp")
    with pytest.raises(SpecError, match="declarative spec"):
        resolve_recovery(resolved, "dctcp")
    with pytest.raises(SpecError, match="declarative spec"):
        make_transport_config(ScenarioConfig(recovery=resolved))


def test_unknown_name_lists_the_registry():
    with pytest.raises(ValueError, match=re.escape(f"unknown recovery 'rack'; available: "
                                                   f"{sorted(RECOVERIES)}")):
        resolve_recovery({"name": "rack"}, "dctcp")
    with pytest.raises(SpecError, match="recovery.name: .* got no 'name' key"):
        resolve_recovery({"min_ns": 1}, "dctcp")
    with pytest.raises(SpecError, match="recovery.rto_ns"):
        resolve_recovery({"name": "fixed-rto"}, "dctcp")  # rto_ns is required


def test_resolve_config_resolves_once_per_transport():
    config = resolve_config("tcp", TransportConfig(recovery="tlp"))
    assert config.recovery == Recovery("tcp", 4 * MILLIS, tlp=True)
    assert resolve_config("tcp", config) is config
    with pytest.raises(TypeError):  # resolved for tcp, not for irn
        resolve_config("irn", config)


@pytest.mark.parametrize("transport, spec", [("dctcp", "tlp"), ("irn", None)])
def test_flows_of_one_run_share_one_resolved_recovery(transport, spec):
    config = ScenarioConfig(transport=transport, recovery=spec, topology="star",
                            scale=Scale("two", 0, 1, 3, 0, 0, 0))
    net = build_network(config)
    name, tconfig, _tlt = endpoint_settings(config)
    first, _ = create_flow(name, net, FlowSpec(1, 0, 1, 10_000), tconfig)
    second, _ = create_flow(name, net, FlowSpec(2, 2, 1, 10_000), tconfig)
    assert first.config is second.config is tconfig
    assert first.config.recovery is second.config.recovery
    assert first.rto is not second.rto  # the estimator is each flow's own
