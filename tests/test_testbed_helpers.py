"""Tests for the emulated-testbed scenario and small public utilities."""

from repro.experiments.scenarios import build_network, make_transport_config
from repro.experiments.testbed import paper_testbed
from repro.sim.units import KB
from repro.transport.dctcp import dctcp_config
from repro.version import __version__


def test_version_string():
    parts = __version__.split(".")
    assert len(parts) == 3 and all(p.isdigit() for p in parts)


def test_dctcp_config_enables_ecn():
    config = dctcp_config(mss=1000)
    assert config.ecn
    assert config.mss == 1000


def test_testbed_builds_star_with_paper_settings():
    net = build_network(paper_testbed(transport="dctcp", tlt=True))
    [switch] = net.switches
    assert switch.name == "tor0" and len(net.hosts) == 10
    assert switch.config.color_threshold_bytes == 270 * KB
    assert switch.ecn.k_bytes == 200 * KB
    assert switch.buffer.capacity == 10 * 375 * KB and switch.buffer.alpha == 1.0
    # Dynamic-threshold ceiling ~ half the pool: the ~1.8 MB single-port
    # allowance the paper's Tomahawk exhibits.
    assert abs(switch.buffer.capacity / 2 - 1_875_000) < 100_000


def test_testbed_without_tlt_disables_coloring():
    net = build_network(paper_testbed(transport="dctcp", tlt=False))
    assert net.switches[0].config.color_threshold_bytes is None


def test_testbed_hpcc_enables_int():
    net = build_network(paper_testbed(4, transport="hpcc", tlt=False))
    assert net.switches[0].config.int_enabled


def test_testbed_transport_settings_rtt():
    config = paper_testbed()
    assert config.base_rtt_ns == 8_000
    tconfig = make_transport_config(config)
    assert tconfig.base_rtt_ns == 8_000
    assert tconfig.recovery.rto_ns == 4_000_000 and not tconfig.recovery.fixed
