"""Tripwire: Python calls per simulated event on the hot callback layers.

On the compiled backend four fifths of a run is Python that the event
loop calls back into (``docs/PERFORMANCE.md``), and what that costs is
mostly how many Python functions run per event. The count is exact and
host-independent, so it can gate: one tiny ``incast-star``-shaped
DCTCP+TLT run under ``sys.setprofile`` must stay inside a budget set
about 10 % above the count it was last moved at: on ``pure`` 3.05 on
CPython 3.11 (4.58 before PR 16; newer interpreters inline
comprehensions and count fewer), on ``compiled`` 0.69 (2.58 before the
host kernel kept the byte-stream ACK and DATA paths in C, PR 17; 1.81
before it kept the send path, the receiver's completion edge and the
switch's drops, PR 18 -- what is left is ``tlt.on_ack`` and ``cc_on_ack``
per ACK and flow set-up). A per-tick scan, a per-flow config copy, a
per-ACK helper chain or a hand-back creeping into the per-packet path of
``HostKernel.sink`` shows here long before it shows in a timing.

On ``compiled`` the send path itself is checked too: in this scenario
``ByteStreamSender._transmit`` may run as a Python frame only where
Python decides to send -- under the TLT controller's ``clock_*`` and its
suppressed clock echo, and under ``_on_timeout`` -- never for a window
opened by an ACK or by ``start()``.

The RoCE family has no C path, so its row is the same on both backends:
one tiny leaf-spine ``dcqcn`` + PFC + TLT incast, 12 flows per sender
of 16 kB. Its budget is about 10 % above the 1.35 (pure) and 1.33
(compiled) calls per event it was moved to when the sender's send
engine, the receiver's data path and DCQCN's timers became one frame
each (1.80 and 1.78 before).
"""

import dataclasses
import os
import sys

import pytest

import repro
from repro.experiments.scale import TINY, Scale
from repro.experiments.scenarios import ScenarioConfig, run_scenario
from repro.sim import backend
from repro.transport.base import ByteStreamSender

#: Python-function calls into LAYERS per simulated event, by scenario and backend.
BUDGET = {"dctcp": {"pure": 3.35, "compiled": 0.76},
          "roce": {"pure": 1.48, "compiled": 1.46}}

SCENARIOS = {
    "dctcp": ScenarioConfig(
        transport="dctcp", tlt=True, topology="star", enable_background=False,
        scale=Scale("budget", 1, 1, 6, 0, 1, 32), incast_flow_size=8_000,
        audit=False, shards=1, seed=1),
    "roce": ScenarioConfig(
        transport="dcqcn", pfc=True, tlt=True, enable_background=False,
        scale=dataclasses.replace(TINY, incast_events=1, incast_flows_per_sender=12),
        incast_flow_size=16_000, audit=False, shards=1, seed=1),
}

#: Who may be above a Python ``_transmit`` frame on the compiled backend
#: (``on_ack``: the controller's own ``try_send`` for a clock echo it
#: suppresses; an ACK it lets through has no Python frame above the burst).
PYTHON_SENDERS = ("clock_retransmit", "clock_one_byte", "_on_timeout", "on_ack")

LAYERS = tuple(
    os.path.join(os.path.dirname(os.path.abspath(repro.__file__)), layer) + os.sep
    for layer in ("transport", "stats", "core", "experiments")
)


def check_budget(name, scenario="dctcp"):
    budget = BUDGET[scenario][name]
    calls = 0
    stray = []  # Python _transmit frames nothing in PYTHON_SENDERS asked for

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(LAYERS):
            calls += 1
            if frame.f_code is ByteStreamSender._transmit.__code__:
                above = []
                while (frame := frame.f_back) is not None:
                    above.append(frame.f_code.co_name)
                if not any(name in PYTHON_SENDERS for name in above):
                    stray.append(above[:3])

    backend.set_backend(name)
    try:
        sys.setprofile(count)
        try:
            result = run_scenario(SCENARIOS[scenario])
        finally:
            sys.setprofile(None)
    finally:
        backend.set_backend(None)
    events = result.net.engine.events_processed
    stats = result.stats
    assert stats.incomplete_flows() == 0
    assert (stats.drops_red if scenario == "dctcp" else stats.ecn_marks) > 0
    assert events > 5_000
    per_event = calls / events
    assert per_event <= budget, (
        f"{calls} Python calls into transport/stats/core/experiments for {events} "
        f"simulated events = {per_event:.2f} per event on {name}, budget {budget}")
    if scenario != "dctcp":
        return  # the stray-_transmit check is about the byte-stream sender
    if name == "compiled":
        assert not stray, f"{len(stray)} Python _transmit frames, the first under {stray[0]}"
    else:
        assert len(stray) > 1_000  # the check can see them


def test_hot_layer_calls_per_event_stay_in_budget():
    check_budget("pure")


@pytest.mark.skipif(not backend.compiled_available(), reason="compiled backend not built")
def test_hot_layer_calls_per_event_stay_in_budget_compiled():
    check_budget("compiled")


def test_roce_calls_per_event_stay_in_budget():
    check_budget("pure", "roce")


@pytest.mark.skipif(not backend.compiled_available(), reason="compiled backend not built")
def test_roce_calls_per_event_stay_in_budget_compiled():
    check_budget("compiled", "roce")
