"""Tests for pluggable admission policies (repro.switchsim.policy).

Three groups:

- **Parity** — the switch has one admission pipeline; the open-coded
  default decision and an explicit ``AdmissionPolicy`` must be
  indistinguishable when the policy is Choudhury–Hahne + static-K:
  identical counters on crafted traffic, identical whole-scenario
  determinism fingerprints, identical ECN boundary behaviour, and
  accounting equal to the canonical ``SharedBuffer``/``EgressQueue``
  methods — in all four configurations (default/explicit × audited or
  not). This is what lets the policy lab ride the production pipeline.
- **Policies** — spec parsing, per-switch instantiation, the adaptive-K
  controller's retune/clamp behaviour, and the per-switch name-seeded
  ECN RNG streams.
- **Property** — random traffic through every registered policy under
  the auditor: buffer conservation and color accounting hold, and no
  policy ever congestion-drops a green packet via the color check.
"""

import random

import pytest

from repro.audit import Auditor
from repro.experiments.scale import TINY
from repro.experiments.scenarios import ScenarioConfig, build_network
from repro.net.packet import Color, Packet, PacketKind
from repro.switchsim.buffer import SharedBuffer
from repro.switchsim.ecn import RedEcn, StepEcn
from repro.switchsim.policy import (
    POLICIES,
    BShare,
    ChoudhuryHahne,
    TinyBuffer,
    make_policy,
)
from repro.spec import SpecError
from repro.switchsim.queue import EgressQueue
from tests.test_determinism import EXPECTED, fingerprint
from tests.util import PacketTap, small_star


def _data(flow, src, dst, payload=1452, color=Color.GREEN, seq=0, ecn=False):
    pkt = Packet(flow, src, dst, PacketKind.DATA, seq=seq, payload=payload)
    pkt.color = color
    pkt.ecn_capable = ecn
    return pkt


# -- spec parsing -------------------------------------------------------------


def test_make_policy_default_is_choudhury_hahne():
    policy = make_policy(None)
    assert isinstance(policy, ChoudhuryHahne)


def test_make_policy_by_name_and_dict():
    assert isinstance(make_policy("bshare"), BShare)
    policy = make_policy({"name": "tiny-buffer", "cap_bytes": 123})
    assert isinstance(policy, TinyBuffer)
    assert policy.cap_bytes == 123


def test_make_policy_returns_fresh_instances():
    # A shared SwitchConfig must never share policy state.
    assert make_policy("bshare") is not make_policy("bshare")


def test_make_policy_rejects_instances_and_bad_specs():
    with pytest.raises(SpecError):
        make_policy(BShare())
    with pytest.raises(SpecError):
        make_policy(42)
    with pytest.raises(ValueError):
        make_policy("no-such-policy")
    with pytest.raises(ValueError):
        make_policy({"cap_bytes": 1})  # missing "name"
    with pytest.raises(ValueError):
        make_policy({"name": "bshare", "target_delay_ns": 0})


def test_every_registered_policy_builds_a_switch():
    for name in POLICIES:
        net = small_star(color_threshold_bytes=4_000, admission=name)
        assert net.switches[0].policy.name == name
        assert net.switches[0].policy.invariants() == []


# -- parity: open-coded default decision vs explicit policy ------------------


def _drive_mixed_burst(net):
    """Crafted burst exercising every admission outcome: red color
    drops, dynamic-threshold drops, and clean green delivery."""
    delivered = []

    class Sink:
        def on_packet(self, packet):
            delivered.append(packet.flow_id)

    sink = Sink()
    for flow in (70, 71):
        net.host(2).register_endpoint(flow, sink)
    for i in range(30):
        net.host(0).send(_data(70, 0, 2, color=Color.RED, seq=i, ecn=True))
        net.host(1).send(_data(71, 1, 2, color=Color.GREEN, seq=i, ecn=True))
    net.engine.run()
    return delivered


def _switch_counters(net):
    sw = net.switches[0]
    return {
        "drops_red": net.stats.drops_red,
        "drops_green": net.stats.drops_green,
        "drop_bytes": net.stats.drop_bytes,
        "ecn_marks": net.stats.ecn_marks,
        "sw_drops_red": sw.drops_red,
        "sw_drops_green": sw.drops_green,
        "buffer_used": sw.buffer.used,
        "buffer_peak": sw.buffer.peak_used,
        "max_occ": [q.max_occupancy for q in sw.queues],
        "max_red": [q.max_red_bytes for q in sw.queues],
        "dequeued": [q.dequeued_bytes for q in sw.queues],
    }


def _parity_net(admission, audited):
    net = small_star(buffer_bytes=20_000, color_threshold_bytes=3_000,
                     ecn=StepEcn(2_000), admission=admission)
    if audited:
        Auditor(net).install()
    return net


@pytest.mark.parametrize("audited", [False, True])
def test_default_and_policy_paths_produce_identical_counters(audited):
    nets = [_parity_net(None, audited), _parity_net("ch-static-k", audited)]
    results = [(_drive_mixed_burst(net), _switch_counters(net)) for net in nets]
    (delivered_a, counters_a), (delivered_b, counters_b) = results
    assert delivered_a == delivered_b
    assert counters_a == counters_b
    # The burst actually exercised drops and marks, or parity is vacuous.
    assert counters_a["drops_red"] > 0
    assert counters_a["ecn_marks"] > 0
    assert counters_a["buffer_used"] == 0


def test_explicit_ch_policy_matches_pinned_fingerprint():
    # The strongest parity statement: a whole TINY scenario deciding
    # through the policy object reproduces the open-coded decision's
    # pinned fingerprint bit-for-bit.
    base = dict(transport="dctcp", tlt=True, scale=TINY, seed=3, audit=False)
    explicit = fingerprint(ScenarioConfig(admission="ch-static-k", **base))
    assert explicit == EXPECTED["dctcp_tlt"]


@pytest.mark.parametrize("admission", [None, "ch-static-k"])
@pytest.mark.parametrize("audited", [False, True])
def test_shared_buffer_canonical_methods_match_open_coded_accounting(
        admission, audited, no_packet_pool):
    # The open-coded enqueue/dequeue arithmetic of the one pipeline
    # (shared by default and explicit policies) must agree with the
    # canonical SharedBuffer.reserve/release + EgressQueue.push/pop:
    # replay what a real switch admitted and dequeued, in order, through
    # fresh canonical objects and compare every counter.
    net = _parity_net(admission, audited)
    sw = net.switches[0]
    log = []  # ("in" | "out", packet) in event order
    PacketTap(sw, lambda packet: log.append(("in", packet)))
    dequeue = sw.poll  # looked up per call by Port and PortKernel alike

    def poll(port):
        packet = dequeue(port)
        if packet is not None:
            log.append(("out", packet))
        return packet

    sw.poll = poll
    _drive_mixed_burst(net)

    # Everything admitted was dequeued by the time the run drained.
    admitted = {id(packet) for kind, packet in log if kind == "out"}
    buffer = SharedBuffer(sw.config.buffer_bytes, sw.config.alpha)
    queue = EgressQueue(2)
    for kind, packet in log:
        if kind == "out":
            popped, _ = queue.pop()
            assert popped is packet
            buffer.release(packet.size)
        elif id(packet) in admitted:
            buffer.reserve(packet.size)
            queue.push(packet, packet.src)
    assert len(queue) == 0
    real = sw.queue_for(2)
    assert (sw.buffer.used, sw.buffer.peak_used) == (buffer.used, buffer.peak_used)
    for field in ("occupancy", "red_bytes", "max_occupancy", "max_red_bytes",
                  "dequeued_bytes"):
        assert getattr(real, field) == getattr(queue, field), field
    # The burst exercised drops, marks, red and green, or this is vacuous.
    assert sw.drops_red > 0 and net.stats.ecn_marks > 0
    assert queue.max_red_bytes > 0 and queue.dequeued_bytes > queue.max_red_bytes
    # The canonical methods keep their own guards.
    with pytest.raises(AssertionError):
        buffer.release(1)
    with pytest.raises(AssertionError):
        SharedBuffer(100).reserve(101)


# -- parity: ECN boundary semantics in all four configurations --------------


def _mark_pattern(net, payload=952, count=3):
    """Enqueue ``count`` back-to-back packets into a blocked egress and
    report which got CE-marked (post-enqueue occupancy semantics)."""
    sw = net.switches[0]
    sw.ports[2].busy = True  # block egress so nothing dequeues
    pkts = [_data(90, 0, 2, payload=payload, seq=i, ecn=True)
            for i in range(count)]
    for pkt in pkts:
        sw.receive(pkt, sw.ports[0])
    assert sw.queue_for(2).occupancy == (payload + 48) * count
    return [p.ce for p in pkts]


@pytest.mark.parametrize("admission", [None, "ch-static-k"])
@pytest.mark.parametrize("audited", [False, True])
def test_step_ecn_boundary_identical_across_variants(admission, audited):
    # Packets are 1000 B on the wire; K_ECN = 2000. Marking is on the
    # post-enqueue occupancy, strictly above K: 1000 no, 2000 (== K)
    # no, 3000 yes — in every configuration of the pipeline.
    net = small_star(ecn=StepEcn(2_000), admission=admission)
    if audited:
        Auditor(net).install()
    assert _mark_pattern(net) == [False, False, True]


@pytest.mark.parametrize("admission", [None, "ch-static-k"])
def test_red_ecn_boundary_identical_across_variants(admission):
    # RedEcn boundaries: occupancy == k_min never marks, == k_max
    # force-marks; neither consumes an RNG draw, so the stream state is
    # untouched by boundary traffic under either decision.
    rng = random.Random(9)
    ecn = RedEcn(1_000, 2_000, 0.5, rng)
    net = small_star(ecn=ecn, admission=admission)
    state = rng.getstate()
    assert _mark_pattern(net) == [False, True, True]
    assert rng.getstate() == state


# -- per-switch ECN RNG streams ----------------------------------------------


def _dcqcn_config():
    return ScenarioConfig(transport="dcqcn", pfc=True, scale=TINY, seed=5,
                          audit=False)


def test_roce_switches_get_independent_name_seeded_rngs():
    net = build_network(_dcqcn_config())
    schemes = [sw.ecn for sw in net.switches]
    assert all(isinstance(s, RedEcn) for s in schemes)
    # Distinct instances, distinct streams (no fabric-global RNG).
    assert len({id(s) for s in schemes}) == len(schemes)
    assert len({s.rng.getstate() for s in schemes}) == len(schemes)


def test_roce_ecn_streams_are_reproducible_by_switch_name():
    # Name-derived seeds: rebuilding the fabric reproduces every
    # switch's stream exactly — the property that makes a shard
    # replica's draws identical to the single-core run's.
    draws = [
        {sw.name: sw.ecn.rng.random() for sw in build_network(_dcqcn_config()).switches}
        for _ in range(2)
    ]
    assert draws[0] == draws[1]


# -- adaptive-K controller ----------------------------------------------------


def _queue_stuff(sw, color, payload=1452, count=1):
    """Park packets in queue 0 (canonical accounting, nothing drains)."""
    queue = sw.queues[0]
    for i in range(count):
        pkt = _data(95, 0, 2, payload=payload, color=color, seq=i)
        sw.buffer.reserve(pkt.size)
        queue.push(pkt, 0)
    return queue


def test_adaptive_k_inert_without_color_threshold():
    net = small_star(admission="adaptive-k")
    policy = net.switches[0].policy
    assert policy.k is None
    assert policy.color_threshold(net.switches[0].queues[0]) is None
    assert policy._sampler is None  # no controller armed
    assert policy.invariants() == []


def test_adaptive_k_cuts_k_on_green_buildup_and_clamps():
    net = small_star(color_threshold_bytes=4_000, admission="adaptive-k")
    sw = net.switches[0]
    policy = sw.policy
    assert (policy.k0, policy.k_lo, policy.k_hi) == (4_000, 1_000, 16_000)
    assert policy.color_threshold(sw.queues[0]) == 4_000
    # Green backlog past green_target_fraction * K0 (= 1000 B).
    _queue_stuff(sw, Color.GREEN, count=1)
    for _ in range(30):
        policy._retune()
    assert policy.k == policy.k_lo  # cut repeatedly, clamped at K0/4
    assert policy.adjustments > 0
    assert policy.invariants() == []


def test_adaptive_k_raises_k_when_red_rides_threshold():
    net = small_star(color_threshold_bytes=4_000, admission="adaptive-k")
    sw = net.switches[0]
    policy = sw.policy
    # Red occupancy >= 0.9 * K with an almost-empty pool.
    _queue_stuff(sw, Color.RED, count=3)  # 4500 B red >= 3600
    policy._retune()
    assert policy.k == 5_000  # 4000 * 1.25
    for _ in range(30):
        policy._retune()
    # Red (4500 B) no longer rides within 0.9 * K once K passes 5000:
    # the controller raises exactly once more, then holds — K tracks
    # the backlog instead of growing without bound.
    assert policy.k == 6_250
    assert policy.invariants() == []


def test_adaptive_k_clamps_at_upper_bound():
    net = small_star(color_threshold_bytes=4_000, admission="adaptive-k")
    sw = net.switches[0]
    policy = sw.policy
    # A red backlog so deep it rides 0.9 * K all the way up.
    _queue_stuff(sw, Color.RED, count=35)  # 52 500 B red
    for _ in range(30):
        policy._retune()
    assert policy.k == policy.k_hi  # clamped at 4 * K0
    assert policy.invariants() == []


def test_adaptive_k_controller_is_armed_by_finalize():
    net = small_star(color_threshold_bytes=4_000, admission="adaptive-k")
    policy = net.switches[0].policy
    assert policy._sampler is not None
    assert policy._sampler.event_pending
    # No incomplete flows: the controller stops itself on its first
    # tick instead of keeping an idle engine alive forever.
    net.engine.run()
    assert net.engine.peek_time() is None


# -- property: every policy under the auditor --------------------------------


@pytest.mark.parametrize("name", sorted(POLICIES))
def test_random_traffic_preserves_invariants_under_every_policy(name):
    net = small_star(buffer_bytes=60_000, color_threshold_bytes=3_000,
                     ecn=StepEcn(2_000), admission=name)
    auditor = Auditor(net).install()
    rng = random.Random(1234)
    hosts = len(net.hosts)
    for i in range(300):
        src = rng.randrange(hosts)
        dst = rng.randrange(hosts - 1)
        if dst >= src:
            dst += 1
        color = Color.RED if rng.random() < 0.5 else Color.GREEN
        net.host(src).send(_data(
            100 + src * hosts + dst, src, dst, color=color,
            payload=rng.randrange(200, 1453), seq=i, ecn=True,
        ))
        if i % 10 == 9:
            net.engine.run()  # drain in bursts to vary occupancy
    net.engine.run()
    # Green packets were never congestion-dropped by the color check
    # (the auditor raises from on_drop the instant that happens), and
    # the books balance after the run.
    auditor.final_check()
    sw = net.switches[0]
    assert sw.buffer.used == 0
    assert all(q.occupancy == 0 and q.red_bytes == 0 for q in sw.queues)
    assert sw.policy.invariants() == []


def test_tiny_buffer_sheds_green_as_justified_dynamic_drops():
    # The tiny-buffer regime may congestion-drop green at its cap on a
    # lossy fabric — the policy-aware auditor must accept that as a
    # justified "dynamic" drop rather than flag it.
    net = small_star(admission={"name": "tiny-buffer", "cap_bytes": 2_000})
    auditor = Auditor(net).install()
    for i in range(20):
        net.host(0).send(_data(60, 0, 2, seq=i))
        net.host(1).send(_data(61, 1, 2, seq=i))
    net.engine.run()
    auditor.final_check()
    assert net.stats.drops_green > 0
    assert net.switches[0].buffer.used == 0
