"""Shared test helpers."""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.net.node import Interceptor
from repro.net.packet import Packet
from repro.net.topology import Network, TopologyParams, star
from repro.switchsim.switch import SwitchConfig
from repro.transport.base import FlowSpec, TransportConfig


def small_star(num_hosts: int = 4, delay_ns: int = 1_000, **switch_kwargs) -> Network:
    """A small star network with microsecond-scale RTTs for fast tests."""
    switch_kwargs.setdefault("buffer_bytes", 1_000_000)
    params = TopologyParams(
        switch_config=SwitchConfig(**switch_kwargs),
        link_delay_ns=delay_ns,
    )
    return star(num_hosts=num_hosts, params=params)


class PacketTap(Interceptor):
    """Observe every packet arriving at a device, then forward it.

    Replaces the old ``device.receive = wrapper`` test idiom, which
    broke whenever anything else (audit toggling, another wrapper)
    rebound the receive path.
    """

    def __init__(self, device, fn: Callable[[Packet], None]):
        self.device = device
        self._fn = fn
        device.add_interceptor(self)

    def on_packet(self, packet: Packet, in_port, forward) -> None:
        self._fn(packet)
        forward(packet, in_port)


class DropFilter(Interceptor):
    """Deterministically drop selected packets at a switch.

    ``predicate(packet)`` returning True drops the packet (and counts
    it). Use ``drop_once(selector)`` helpers to drop the first packet
    matching a condition exactly once. Installed on the switch's
    interceptor chain, so it survives audit toggling and composes with
    fault injection.
    """

    def __init__(self, switch):
        self.switch = switch
        self.dropped: List[Packet] = []
        self._predicates: List[Callable[[Packet], bool]] = []
        switch.add_interceptor(self)

    def add(self, predicate: Callable[[Packet], bool]) -> None:
        self._predicates.append(predicate)

    def drop_once(self, predicate: Callable[[Packet], bool]) -> None:
        armed = [True]

        def once(packet: Packet) -> bool:
            if armed[0] and predicate(packet):
                armed[0] = False
                return True
            return False

        self.add(once)

    def drop_seq_once(self, seq: int) -> None:
        """Drop the next DATA packet with this sequence number."""
        from repro.net.packet import PacketKind

        self.drop_once(lambda p: p.kind == PacketKind.DATA and p.seq == seq)

    def on_packet(self, packet: Packet, in_port, forward) -> None:
        for predicate in self._predicates:
            if predicate(packet):
                # Kept (not recycled): tests inspect dropped packets.
                self.dropped.append(packet)
                return
        forward(packet, in_port)


# -- failure-injection metrics for the parallel job runner ------------------
# These must live at module level so worker processes can resolve them
# by "tests.util:<name>" references (see repro.experiments.parallel).


def crashing_metrics(result):
    """Always raises — exercises in-worker exception reporting."""
    raise RuntimeError("injected metrics failure")


def exiting_metrics(result):
    """Hard-kills the worker process without a traceback."""
    import os

    os._exit(17)


def sleeping_metrics(result):
    """Blocks far past any test timeout — exercises the watchdog."""
    import time

    time.sleep(600)
    return result.summary_row()


def flaky_once_metrics(result):
    """Crashes the worker on first use, succeeds on retry.

    The attempt marker file is named by the TLT_TEST_FLAKY env var
    (inherited by workers), so only the first attempt dies.
    """
    import os

    marker = os.environ["TLT_TEST_FLAKY"]
    if not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(13)
    return result.summary_row()


def fail_on_seed2_metrics(result):
    """Fails only for seed 2 — exercises partial-failure averaging."""
    if result.config.seed == 2:
        raise RuntimeError("seed 2 rejected")
    return result.summary_row()


def slow_on_seed1_metrics(result):
    """Seed 1 finishes last — exercises completion order != submission order."""
    import time

    if result.config.seed == 1:
        time.sleep(0.5)
    return result.summary_row()


def run_flow(
    net: Network,
    transport: str,
    size: int,
    src: int = 0,
    dst: int = 1,
    tlt=None,
    config: Optional[TransportConfig] = None,
    until: int = 2_000_000_000,
    group: str = "fg",
):
    """Create one flow, run the engine, return (sender, receiver, record)."""
    from repro.transport.registry import create_flow

    spec = FlowSpec(flow_id=net.new_flow_id(), src=src, dst=dst, size=size, group=group)
    config = config or TransportConfig(base_rtt_ns=4 * net.hosts[0].port.delay_ns)
    sender, receiver = create_flow(transport, net, spec, config, tlt)
    net.engine.run(until=until)
    return sender, receiver, net.stats.flows[spec.flow_id]
