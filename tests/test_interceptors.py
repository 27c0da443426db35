"""Tests for the receive-path interceptor chain (repro.net.node).

The chain replaced the old ``device.receive = wrapper`` monkey-patch
idiom, whose wrappers were silently disconnected whenever the switch
rebound its data path (``set_auditor``). These tests pin the contract:
ordering, add/remove semantics, the zero-cost empty chain, survival
across audit toggling, and delivery-time dispatch for in-flight packets.
"""

import pytest

from repro.audit import Auditor
from repro.faults import FaultInjector
from repro.net.node import Interceptor
from repro.net.packet import Packet, PacketKind
from repro.transport.base import FlowSpec, TransportConfig
from tests.util import PacketTap, run_flow, small_star


class Recorder(Interceptor):
    """Tags every packet it sees with its label, in chain order."""

    def __init__(self, label, log):
        self.label = label
        self.log = log

    def on_packet(self, packet, in_port, forward):
        self.log.append(self.label)
        forward(packet, in_port)


class Sink(Interceptor):
    """Consumes everything (without recycling: packets stay inspectable)."""

    def __init__(self):
        self.eaten = 0

    def on_packet(self, packet, in_port, forward):
        self.eaten += 1


# -- chain mechanics ----------------------------------------------------------


def test_empty_chain_is_the_base_implementation():
    """With no interceptors, receive IS the base method — the
    uninstrumented hot path pays zero indirection."""
    net = small_star()
    switch = net.switches[0]
    assert switch.receive is switch._base_receive
    tap = PacketTap(switch, lambda p: None)
    assert switch.receive is not switch._base_receive
    switch.remove_interceptor(tap)
    assert switch.receive is switch._base_receive


def test_interceptors_run_in_install_order():
    net = small_star()
    switch = net.switches[0]
    log = []
    switch.add_interceptor(Recorder("a", log))
    switch.add_interceptor(Recorder("b", log))
    run_flow(net, "tcp", size=1_000)
    assert log[:2] == ["a", "b"]


def test_index_zero_installs_closest_to_the_wire():
    net = small_star()
    switch = net.switches[0]
    log = []
    switch.add_interceptor(Recorder("late", log))
    switch.add_interceptor(Recorder("wire", log), index=0)
    run_flow(net, "tcp", size=1_000)
    assert log[:2] == ["wire", "late"]


def test_duplicate_install_rejected():
    net = small_star()
    switch = net.switches[0]
    tap = Recorder("a", [])
    switch.add_interceptor(tap)
    with pytest.raises(ValueError):
        switch.add_interceptor(tap)


def test_remove_unknown_interceptor_raises():
    net = small_star()
    with pytest.raises(ValueError):
        net.switches[0].remove_interceptor(Recorder("x", []))


def test_consuming_interceptor_stops_the_chain():
    net = small_star()
    switch = net.switches[0]
    sink = Sink()
    downstream = []
    switch.add_interceptor(sink)
    switch.add_interceptor(Recorder("after", downstream))
    spec_run = run_flow(net, "tcp", size=1_000, until=1_000_000)
    assert sink.eaten > 0
    assert downstream == []  # nothing got past the sink
    assert not spec_run[2].completed


def test_interceptors_on_hosts():
    net = small_star()
    seen = []
    PacketTap(net.hosts[1], seen.append)
    _, _, record = run_flow(net, "tcp", size=5_000)
    assert record.completed
    assert any(p.kind == PacketKind.DATA for p in seen)


# -- survival across audit toggling (the bug this PR fixes) -------------------


def test_audit_toggle_preserves_interceptors():
    """Attaching/detaching the auditor rebinds the switch data path;
    interceptors must survive both directions of the swap."""
    net = small_star()
    switch = net.switches[0]
    log = []
    recorder = Recorder("tap", log)
    switch.add_interceptor(recorder)
    unaudited_base = switch._base_receive

    auditor = Auditor(net).install()
    # Audited runs always take the Python pipeline (the only one with
    # hooks), whatever base the backend had bound before.
    assert switch._base_receive == switch._receive
    assert switch.interceptors == (recorder,)
    run_flow(net, "tcp", size=2_000)
    seen_audited = len(log)
    assert seen_audited > 0

    auditor.detach()
    assert switch._base_receive == unaudited_base  # swapped back
    assert switch.interceptors == (recorder,)
    net.hosts[0].send(Packet(net.new_flow_id(), 0, 1, PacketKind.DATA, seq=0,
                             payload=1000))
    net.engine.run(until=net.engine.now + 1_000_000)
    assert len(log) == seen_audited + 1  # still connected on the fast path


def test_compiled_binding_follows_audit_and_admission():
    """What ``Switch._bind_data_path`` binds on the compiled backend:
    the kernel's methods iff a kernel is attached and no auditor is
    installed, the one Python pipeline otherwise."""
    from types import SimpleNamespace

    from repro.sim import backend

    if not backend.compiled_available():
        pytest.skip("compiled backend not built")
    backend.set_backend("compiled")
    try:
        net = small_star(buffer_bytes=20_000)
        explicit = small_star(admission="ch-static-k").switches[0]
    finally:
        backend.set_backend(None)
    switch = net.switches[0]
    kernel = switch._kernel

    def on_kernel():
        return (switch._base_receive == kernel.receive
                and switch.receive == kernel.receive
                and switch.poll == kernel.poll)

    def on_python():
        return (switch._base_receive == switch._receive
                and switch.poll == switch._poll)

    assert kernel is not None and on_kernel()
    auditor = Auditor(net).install()
    assert on_python()
    auditor.detach()
    assert on_kernel()

    # Explicit admission policies never get a kernel.
    assert explicit._kernel is None
    assert explicit._base_receive == explicit._receive
    assert explicit.poll == explicit._poll

    # Non-Port doubles: the kernel looks Switch._receive/_poll up by
    # name on the type and runs the Python pipeline.
    double = SimpleNamespace(port_no=0)
    switch.ports[2].busy = True  # block egress so the packet stays queued
    packet = Packet(net.new_flow_id(), 0, 2, PacketKind.DATA, seq=0, payload=1000)
    kernel.receive(packet, double)
    assert switch.queue_for(2).occupancy == packet.size
    assert switch.buffer.used == packet.size
    assert kernel.poll(SimpleNamespace(port_no=2)) is packet
    assert switch.buffer.used == 0


def test_injector_survives_audit_toggle():
    net = small_star()
    switch = net.switches[0]
    injector = FaultInjector(switch, 1.0)
    auditor = Auditor(net).install()
    auditor.detach()
    run_flow(net, "tcp", size=1_460, until=1_000_000)
    assert injector.corrupted > 0


def test_in_flight_packet_hits_interceptor_installed_after_send():
    """Links resolve the receive path at delivery time: an interceptor
    installed while a packet is on the wire still sees it land."""
    net = small_star()
    switch = net.switches[0]
    host = net.hosts[0]
    packet = Packet(net.new_flow_id(), 0, 1, PacketKind.DATA, seq=0, payload=1000)
    host.send(packet)  # serializes + schedules delivery
    sink = Sink()
    switch.add_interceptor(sink)  # installed AFTER the send
    net.engine.run(until=1_000_000)
    assert sink.eaten == 1



def _tap_host_mid_flight(name):
    """Start a flow 0 -> 1, tap host 1 while frames are on the wire toward
    it, and run to the end: the frames in flight at the tap, and what the
    tap saw."""
    from repro.sim import backend
    from repro.transport.registry import create_flow

    backend.set_backend(name)
    try:
        net = small_star()
    finally:
        backend.set_backend(None)
    receiver = net.hosts[1]
    wire = receiver.port.peer._inflight  # switch -> host 1
    spec = FlowSpec(flow_id=net.new_flow_id(), src=0, dst=1, size=40_000, group="fg")
    create_flow("dctcp", net, spec, TransportConfig(base_rtt_ns=4_000), None)
    while not wire:
        net.engine.step()
    in_flight = [(frame[3].kind, frame[3].seq) for frame in wire]
    seen = []
    PacketTap(receiver, lambda packet: seen.append((packet.kind, packet.seq)))
    net.engine.run()
    assert net.stats.flows[spec.flow_id].fct_ns is not None
    return in_flight, seen


def test_interceptor_installed_on_a_host_mid_flight_sees_the_frames_in_flight():
    """The compiled port kernel reads ``owner.receive`` from the host's own
    attributes at every delivery, as ``Port._drain`` does: frames already
    on the wire toward a host when an interceptor is installed on it pass
    through the interceptor, on both backends alike."""
    from repro.sim import backend

    if not backend.compiled_available():
        pytest.skip("compiled backend not built")
    in_flight, seen = _tap_host_mid_flight("compiled")
    assert in_flight and seen[:len(in_flight)] == in_flight
    assert (in_flight, seen) == _tap_host_mid_flight("pure")
