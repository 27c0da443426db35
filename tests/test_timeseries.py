"""Tests for the link-utilization series (``LinkLoadSampler``, stream ``link``)."""

import pytest

from repro.telemetry import LinkLoadSampler, MetricsRegistry
from repro.transport.base import FlowSpec, TransportConfig
from repro.transport.registry import create_flow

from tests.util import small_star


def _host0_series(net, interval_ns, **kwargs):
    """The sampler and the list its host-0 utilization samples land in."""
    series = []

    def emit(stream, row):
        if row["device"] == net.host(0).name:
            series.append(row["util"])

    return LinkLoadSampler(net, interval_ns, emit, MetricsRegistry(), **kwargs), series


def _send(net, size):
    spec = FlowSpec(flow_id=net.new_flow_id(), src=0, dst=1, size=size)
    create_flow("tcp", net, spec, TransportConfig(base_rtt_ns=4_000))


def test_idle_link_zero_utilization():
    net = small_star()
    sampler, series = _host0_series(net, 10_000)
    net.engine.run(until=100_000)
    sampler.stop()
    assert series == []  # an idle port emits nothing: zero by elision


def test_bulk_transfer_saturates_link():
    net = small_star()
    _sampler, series = _host0_series(net, 50_000,
                                     active=lambda: bool(net.stats.incomplete_flows()))
    _send(net, 2_000_000)
    net.engine.run()
    # ~420 us of line-rate transmission: most 50 us windows are full.
    assert max(series) > 0.9
    assert sum(util >= 0.8 for util in series) >= 0.5 * len(series)


def test_stop_halts_sampling():
    net = small_star()
    sampler, series = _host0_series(net, 10_000)
    sampler.stop()
    _send(net, 200_000)
    net.engine.run(until=1_000_000)
    assert series == []


def test_interval_validation():
    net = small_star()
    with pytest.raises(ValueError):
        LinkLoadSampler(net, 0, lambda stream, row: None, MetricsRegistry())


def test_utilization_capped_at_one():
    net = small_star()
    _sampler, series = _host0_series(net, 1_000,
                                     active=lambda: bool(net.stats.incomplete_flows()))
    _send(net, 500_000)
    net.engine.run()
    assert series
    assert all(0.0 < util <= 1.0 for util in series)
