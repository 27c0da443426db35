"""Tests for link-utilization time series."""

import pytest

from repro.telemetry import LinkUtilization
from repro.transport.base import FlowSpec, TransportConfig
from repro.transport.registry import create_flow

from tests.util import small_star


def test_idle_link_zero_utilization():
    net = small_star()
    util = LinkUtilization(net.engine, net.host(0).port, interval_ns=10_000)
    net.engine.run(until=100_000)
    util.stop()
    assert util.samples
    assert util.mean == 0.0


def test_bulk_transfer_saturates_link():
    net = small_star()
    util = LinkUtilization(net.engine, net.host(0).port, interval_ns=50_000,
                           duration_ns=2_000_000)
    spec = FlowSpec(flow_id=net.new_flow_id(), src=0, dst=1, size=2_000_000)
    create_flow("tcp", net, spec, TransportConfig(base_rtt_ns=4_000))
    net.engine.run()
    assert util.peak > 0.9
    # ~420 us of the 2 ms window are line-rate busy (8/40 samples).
    assert util.busy_fraction(0.8) >= 0.15


def test_stop_halts_sampling():
    net = small_star()
    util = LinkUtilization(net.engine, net.host(0).port, interval_ns=10_000)
    util.stop()
    net.engine.run(until=1_000_000)
    assert util.samples == []


def test_interval_validation():
    net = small_star()
    with pytest.raises(ValueError):
        LinkUtilization(net.engine, net.host(0).port, interval_ns=0)


def test_utilization_capped_at_one():
    net = small_star()
    util = LinkUtilization(net.engine, net.host(0).port, interval_ns=1_000,
                           duration_ns=500_000)
    spec = FlowSpec(flow_id=net.new_flow_id(), src=0, dst=1, size=500_000)
    create_flow("tcp", net, spec, TransportConfig(base_rtt_ns=4_000))
    net.engine.run()
    assert util.samples
    assert all(0.0 <= s <= 1.0 for s in util.samples)


def test_duration_auto_stops_sampler():
    net = small_star()
    util = LinkUtilization(net.engine, net.host(0).port, interval_ns=10_000,
                           duration_ns=50_000)
    net.engine.run()  # must drain: the sampler self-terminates
    assert len(util.samples) == 5
    assert net.engine.now < 1_000_000
