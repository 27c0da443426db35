"""Unit tests for the PFC engine state machine (no transports)."""

from repro.net.packet import Packet, PacketKind
from repro.net.topology import TopologyParams, star
from repro.switchsim.pfc import PfcConfig, max_pause_ns
from repro.switchsim.switch import SwitchConfig


def pfc_net(xoff=10_000):
    params = TopologyParams(
        link_delay_ns=1_000,
        switch_config=SwitchConfig(
            buffer_bytes=1_000_000,
            pfc=PfcConfig(enabled=True, xoff_bytes=xoff),
        ),
    )
    return star(num_hosts=3, params=params)


def _data(flow, src, dst, seq=0):
    return Packet(flow, src, dst, PacketKind.DATA, seq=seq, payload=1452)


def test_xoff_crossing_asserts_pause():
    net = pfc_net(xoff=3_000)
    switch = net.switches[0]
    # Stuff the egress queue via direct receives from host 0's port.
    in_port = net.host(0).port.peer
    for i in range(5):
        switch.receive(_data(9, 0, 2, seq=i), in_port)
    assert switch.pfc.asserted[in_port.port_no]
    assert switch.pfc.pause_frames_sent >= 1


def test_xon_crossing_sends_resume():
    net = pfc_net(xoff=3_000)
    switch = net.switches[0]
    in_port = net.host(0).port.peer
    for i in range(5):
        switch.receive(_data(9, 0, 2, seq=i), in_port)
    net.engine.run(until=10_000_000)  # queue drains to host 2
    assert not switch.pfc.asserted[in_port.port_no]
    assert switch.pfc.resume_frames_sent >= 1
    assert switch.pfc.ingress_bytes[in_port.port_no] == 0


def test_pause_refreshed_while_above_xoff():
    """While the ingress stays above XOFF, PAUSE is re-sent before the
    quanta expire (so the upstream never resumes spuriously)."""
    net = pfc_net(xoff=3_000)
    switch = net.switches[0]
    in_port = net.host(0).port.peer
    # Pause host 2's drain first so the queue cannot empty.
    switch.ports[2].apply_pause(10 * max_pause_ns(40_000_000_000))
    for i in range(8):
        switch.receive(_data(9, 0, 2, seq=i), in_port)
    first_count = switch.pfc.pause_frames_sent
    net.engine.run(until=2 * max_pause_ns(40_000_000_000))
    assert switch.pfc.pause_frames_sent > first_count  # refreshed


def test_per_ingress_isolation():
    """Only the congested ingress port is paused."""
    net = pfc_net(xoff=3_000)
    switch = net.switches[0]
    port0 = net.host(0).port.peer
    for i in range(5):
        switch.receive(_data(9, 0, 2, seq=i), port0)
    port1 = net.host(1).port.peer
    assert switch.pfc.asserted[port0.port_no]
    assert not switch.pfc.asserted[port1.port_no]
