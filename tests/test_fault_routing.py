"""Routing/fault boundary: overlapping link-flap windows.

Two link-down windows that overlap on one switch are the regression
surface: healing the first link must not resurrect routes through the
second (still-down) link, and healing the second must not clobber the
candidates the first heal already restored.
"""

from __future__ import annotations

import pytest

from repro.faults.schedule import FaultEvent, FaultSchedule
from repro.net.topology import TopologyParams, leaf_spine
from repro.sim.units import MICROS


def _three_spine_net():
    """2 ToRs x 3 spines: tor0 uplinks are ports 2, 3, 4."""
    return leaf_spine(
        num_spines=3, num_tors=2, hosts_per_tor=2,
        params=TopologyParams(link_delay_ns=1 * MICROS),
    )


def _controller(net):
    return FaultSchedule([]).install(net)


def _down(controller, target):
    controller._ev_link_down(FaultEvent(0, "link_down", target))


def _up(controller, target):
    controller._ev_link_up(FaultEvent(0, "link_up", target))


def test_overlapping_flaps_do_not_resurrect_dead_port():
    """A-down, B-down, A-up: the healed FIB must not contain B.

    The original bug: ``restore_routes`` reinstated the candidate tuple
    saved at A-down time — which still contains the meanwhile-died port
    B — so ECMP hashed flows into a dead egress until B healed.
    """
    net = _three_spine_net()
    controller = _controller(net)
    tor0 = net.device("tor0")
    remote = 2  # first host on tor1
    assert tor0.fib.candidates(remote) == (2, 3, 4)

    _down(controller, "tor0:2")   # A down
    assert tor0.fib.candidates(remote) == (3, 4)
    _down(controller, "tor0:3")   # B down, overlapping A's window
    assert tor0.fib.candidates(remote) == (4,)

    _up(controller, "tor0:2")     # A heals while B is still down
    assert tor0.fib.candidates(remote) == (2, 4), (
        "healing A resurrected still-down port 3"
    )

    _up(controller, "tor0:3")     # B heals last
    assert tor0.fib.candidates(remote) == (2, 3, 4)


def test_reverse_order_heal_restores_all_candidates():
    """A-down, B-down, B-up, A-up must end with the pristine FIB."""
    net = _three_spine_net()
    controller = _controller(net)
    tor0 = net.device("tor0")
    remote = 3

    _down(controller, "tor0:2")
    _down(controller, "tor0:3")
    _up(controller, "tor0:3")
    assert tor0.fib.candidates(remote) == (3, 4)
    _up(controller, "tor0:2")
    assert tor0.fib.candidates(remote) == (2, 3, 4)


def test_total_outage_heal_does_not_clobber_earlier_heal():
    """(A,B) both down, A-up, B-up: the last heal must not narrow the
    candidate set back to the tuple saved mid-outage."""
    net = leaf_spine(
        num_spines=2, num_tors=2, hosts_per_tor=2,
        params=TopologyParams(link_delay_ns=1 * MICROS),
    )
    controller = _controller(net)
    tor0 = net.device("tor0")
    remote = 2
    assert tor0.fib.candidates(remote) == (2, 3)

    _down(controller, "tor0:2")
    _down(controller, "tor0:3")   # total uplink outage: remote unroutable
    bh = controller.blackholes["tor0"]
    assert remote in bh.unroutable

    _up(controller, "tor0:2")     # one path back: remote routable again
    assert tor0.fib.candidates(remote) == (2,)
    bh = controller.blackholes.get("tor0")
    if bh is not None:
        assert remote not in bh.unroutable, (
            "destination stayed blackholed although a live path exists"
        )

    _up(controller, "tor0:3")
    assert tor0.fib.candidates(remote) == (2, 3)


def test_switch_down_overlapping_link_flap():
    """switch_down on a spine overlapping a link flap on another spine
    heals back to the pristine FIB on every ToR."""
    net = _three_spine_net()
    controller = _controller(net)
    tor0 = net.device("tor0")
    remote = 2

    _down(controller, "tor0:2")
    controller._ev_switch_down(FaultEvent(0, "switch_down", "spine1"))
    assert tor0.fib.candidates(remote) == (4,)
    controller._ev_switch_up(FaultEvent(0, "switch_up", "spine1"))
    assert tor0.fib.candidates(remote) == (3, 4)
    _up(controller, "tor0:2")
    assert tor0.fib.candidates(remote) == (2, 3, 4)


@pytest.mark.parametrize("chaos_seed", [11, 23, 47])
def test_random_overlapping_flaps_never_enqueue_on_down_port(chaos_seed):
    """Property test: under arbitrary overlapping flap windows, no packet
    is ever enqueued on a down egress port (checked by the auditor's
    dead-egress invariant; conftest arms TLT_AUDIT=1 for every test),
    and the FIB converges back to pristine once every window closes.
    """
    import random

    from repro.experiments.scale import Scale
    from repro.experiments.scenarios import ScenarioConfig, run_scenario

    # TINY has a single spine (no route overlap possible); use a small
    # two-spine fabric so tor0's uplinks (ports 2, 3) share routes.
    scale = Scale("flap", num_spines=2, num_tors=2, hosts_per_tor=2,
                  bg_flows=12, incast_events=2, incast_flows_per_sender=2)
    rng = random.Random(chaos_seed)
    # 2-3 overlapping flap windows on tor0's two uplinks plus one
    # spine-side port, inside the first 2 ms of the run.
    targets = ["tor0:2", "tor0:3", "spine0:0"]
    events = []
    for target in rng.sample(targets, rng.randrange(2, 4)):
        start = rng.randrange(0, 1_000_000)
        duration = rng.randrange(200_000, 1_500_000)
        events.append({"time_ns": start, "kind": "link_down", "target": target})
        events.append({"time_ns": start + duration, "kind": "link_up", "target": target})

    config = ScenarioConfig(
        transport="dctcp", tlt=True, scale=scale, seed=chaos_seed,
        faults={"events": events}, audit=True,
    )
    result = run_scenario(config)

    # Every window closed: each switch's FIB must be pristine again.
    for switch in result.net.switches:
        fib = switch.fib
        assert not fib._down_ports, (switch.name, fib._down_ports)
        assert not fib._pristine, (switch.name, fib._pristine)
