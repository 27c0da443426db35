"""What a finished flow leaves behind.

A sender that has completed leaves its host's demux table and is freed
by reference count — the engine runs with the collector off, so a
sender kept alive by a cycle would stay until the run ends. The
receiver stays registered and keeps ACKing late duplicates.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import tracemalloc
import weakref
from collections import deque

import pytest

from repro.core.config import TltConfig
from repro.experiments import manifest as run_manifest
from repro.experiments.scale import TINY
from repro.experiments.scenarios import ScenarioConfig, run_scenario
from repro.net.packet import Packet, PacketKind
from repro.sim import backend
from repro.stats.collector import Reservoir
from repro.transport.base import FlowSpec
from repro.transport.registry import create_flow
from tests.util import PacketTap, small_star

FLOWS = 12
BACKENDS = [
    "pure",
    pytest.param("compiled", marks=pytest.mark.skipif(
        not backend.compiled_available(), reason="compiled backend not built")),
]


def counters(net):
    """Every counter of the run: NetStats integers, reservoir sizes, and
    each live flow record's fields."""
    stats = net.stats
    values = {}
    for name, value in vars(stats).items():
        if isinstance(value, Reservoir):
            value = (value.seen, len(value))
        if isinstance(value, (int, tuple)):
            values[name] = value
    for flow_id, record in stats.flows.items():
        values[flow_id] = tuple(
            getattr(record, name) for name in type(record).__slots__ if name != "_tally")
    return values


@pytest.fixture
def collector_off():
    gc.collect()
    gc.disable()
    yield
    gc.enable()


@pytest.mark.parametrize("tlt", [False, True], ids=["base", "tlt"])
@pytest.mark.parametrize("transport", ["dctcp", "tcp", "dcqcn", "irn"])
@pytest.mark.parametrize("backend_name", BACKENDS)
def test_finished_sender_is_freed_and_late_packets_reach_only_the_receiver(
        collector_off, backend_name, transport, tlt):
    backend.set_backend(backend_name)
    try:
        net = small_star(2)
    finally:
        backend.set_backend(None)
    senders = []
    for index in range(FLOWS):
        spec = FlowSpec(index + 1, index % 2, (index + 1) % 2, 1_000 + 3_000 * (index % 5),
                        start_ns=index * 2_000)
        sender, _receiver = create_flow(transport, net, spec, None, TltConfig() if tlt else None)
        senders.append(weakref.ref(sender))
    del sender, _receiver
    net.engine.run()

    assert net.stats.incomplete_flows() == 0
    assert [ref() for ref in senders] == [None] * FLOWS  # no collection has run
    assert sum(len(host.endpoints) for host in net.hosts) == FLOWS
    assert all(flow_id not in net.host(index % 2).endpoints
               for index, flow_id in enumerate(range(1, FLOWS + 1)))

    # One more ACK for flow 1 (0 -> 1): nobody is there, nothing happens.
    wire = []  # kinds of the packets that cross the switch from here on
    PacketTap(net.switches[0], lambda packet: wire.append(packet.kind))
    before = counters(net)
    events = net.engine.events_processed
    host = net.host(0)
    host.receive(Packet(1, 1, 0, PacketKind.ACK, 0, 0, 1_000), host.port)
    assert not net.engine.pending and counters(net) == before

    # One more duplicate DATA: the receiver re-ACKs it, as it must for a
    # spurious retransmission that was in flight when the sender
    # completed; that ACK crosses the wire and reaches nobody.
    host = net.host(1)
    host.receive(Packet(1, 0, 1, PacketKind.DATA, 0, 1_000), host.port)
    net.engine.run()
    assert wire == [PacketKind.ACK]
    assert counters(net) == before and net.engine.events_processed > events


def service_config(requests: int) -> ScenarioConfig:
    """The benchmark's ``service-open-loop`` at TINY: LB -> cache x4 +
    storage, 10 one-to-ten-segment flows per request."""
    backends = TINY.num_hosts - 1
    return ScenarioConfig(
        transport="dctcp", tlt=True, scale=TINY, seed=5, audit=False, shards=1,
        service={
            "requests": requests, "rate_rps": 50_000.0, "process": "poisson", "lb_hosts": 1,
            "tiers": [
                {"name": "cache", "servers": backends, "fanout": 4,
                 "workload": "cache_follower", "max_bytes": 32_000, "service_ns": 2_000},
                {"name": "storage", "servers": backends, "fanout": 1,
                 "workload": "web_server", "max_bytes": 8_000, "service_ns": 10_000},
            ],
        })


def test_a_finished_service_run_leaves_at_most_nine_objects_per_flow():
    """Counted gate: what the pre-run ``gc.collect()`` of the *next* run
    has to free. 22.6 tracked objects per flow while finished senders
    stayed registered; 7.4 with only the receiver side left."""
    result = run_scenario(service_config(100))
    flows = result.stats.flow_count()
    assert flows == 1_000 and result.stats.incomplete_flows() == 0
    assert sum(len(host.endpoints) for host in result.net.hosts) == flows
    gc.collect()
    del result
    assert gc.collect() <= 9 * flows


@pytest.mark.skipif(not backend.compiled_available(), reason="compiled backend not built")
def test_back_to_back_compiled_runs_hold_memory_flat(monkeypatch):
    """Every object a kernel binds is visited and cleared by its GC hooks,
    so a network's kernels die with the network's cycles, and building a
    kernel leaves nothing behind in the interpreter's caches. Twenty TINY
    leaf-spine runs on the compiled backend: what tracemalloc holds after
    a collection stays flat from the fifth run on."""
    monkeypatch.setattr(run_manifest, "LOG", deque(maxlen=0))  # keeps every run's manifest
    config = ScenarioConfig(transport="dctcp", tlt=True, scale=TINY, seed=3, audit=False,
                            shards=1, enable_background=False)
    held = [0] * 20
    backend.set_backend("compiled")
    tracemalloc.start()
    try:
        for run in range(len(held)):
            run_scenario(config)
            gc.collect()
            held[run] = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        backend.set_backend(None)
    assert held[-1] - held[4] < 2_000, held


#: One fresh interpreter per backend: the freeze happens once per process.
FRESH_PROCESS = """
import gc, json, sys, weakref
from repro.experiments.scale import TINY
from repro.experiments.scenarios import ScenarioConfig, run_scenario
from repro.sim import backend
from tests.test_lifetime import service_config

backend.set_backend(sys.argv[1])
# Made before the first run, so frozen with the program: alive to the end.
plain = ScenarioConfig(transport="dctcp", tlt=True, scale=TINY, seed=3, audit=False,
                       shards=1, enable_background=False)
service = service_config(100)
frozen = [gc.get_freeze_count()]


def run(config):
    result = run_scenario(config)
    frozen.append(gc.get_freeze_count())
    return result


plain_1 = weakref.ref(run(plain).net)
run(plain)
alive = {"plain": plain_1() is not None}
run(plain)
service_1 = weakref.ref(run(service).net)
result = run(service)
alive["service"] = service_1() is not None
flows = result.stats.flow_count()
gc.collect()
del result
print(json.dumps({"frozen": frozen, "alive": alive, "per_flow": gc.collect() / flows}))
"""


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_the_first_run_freezes_the_program_and_no_run_with_it(backend_name):
    """``run_scenario`` freezes what the process holds before its first
    run (the imported program) and never again; the freeze catches no
    run's state, so each run's network is freed by the next run's
    collection, plain or service; and the counted gate above holds in a
    process whose program is frozen."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {key: value for key, value in os.environ.items() if not key.startswith("TLT_")}
    env["PYTHONPATH"] = os.pathsep.join((os.path.join(root, "src"), root))
    done = subprocess.run([sys.executable, "-c", FRESH_PROCESS, backend_name], cwd=root,
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    before, first, second, third, *service = report["frozen"]
    assert before == 0 and first > 0 and second == third == first, report["frozen"]
    # The service modules' first run lets a few frozen objects go by
    # reference count (ABC caches); a second freeze would add thousands.
    assert max(service) <= first, report["frozen"]
    assert report["alive"] == {"plain": False, "service": False}
    assert report["per_flow"] <= 9
