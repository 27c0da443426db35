"""Tests for Tail Loss Probe (the paper's TLP baseline)."""

from repro.sim.units import MILLIS
from repro.transport.base import TransportConfig

from tests.util import DropFilter, run_flow, small_star


def tlp_config(**kw):
    kw.setdefault("recovery", "tlp")
    kw.setdefault("base_rtt_ns", 4_000)
    return TransportConfig(**kw)


def test_tlp_converts_tail_loss_into_fast_recovery():
    """A lost tail segment is repaired by the probe (well before RTO)."""
    net = small_star()
    drop = DropFilter(net.switches[0])
    drop.drop_seq_once(1460 * 9)  # tail of the initial window
    _, _, record = run_flow(net, "tcp", size=14_600, config=tlp_config())
    assert record.completed
    assert record.timeouts == 0
    assert record.fct_ns < 4 * MILLIS


def test_tlp_probe_loss_still_times_out():
    """The paper's criticism: once the probe is lost too, TLP cannot
    prevent the timeout."""
    net = small_star()
    drop = DropFilter(net.switches[0])
    drop.drop_seq_once(1460 * 9)  # tail
    drop.drop_seq_once(1460 * 9)  # and the probe retransmission
    _, _, record = run_flow(net, "tcp", size=14_600, config=tlp_config())
    assert record.completed
    assert record.timeouts >= 1


def test_tlp_does_not_fire_without_outstanding_data():
    net = small_star()
    sender, _, record = run_flow(net, "tcp", size=14_600, config=tlp_config())
    assert record.completed
    assert record.retx_bytes == 0  # no spurious probes after completion


def test_tlp_one_probe_per_flight():
    net = small_star()
    drop = DropFilter(net.switches[0])
    for i in range(10):
        drop.drop_seq_once(1460 * i)  # whole window lost
    _, _, record = run_flow(net, "tcp", size=14_600, config=tlp_config())
    assert record.completed
    # One probe (one segment) per flight, then normal recovery.
    assert record.timeouts <= 2
