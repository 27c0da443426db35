"""Tripwire: Python calls per simulated event on the hot callback layers.

On the compiled backend four fifths of a run is Python that the event
loop calls back into (``docs/PERFORMANCE.md``), and what that costs is
mostly how many Python functions run per event. The count is exact and
host-independent, so it can gate: one tiny ``incast-star``-shaped
DCTCP+TLT run under ``sys.setprofile`` must stay inside a budget set
about 10 % above the count it was last moved at: on ``pure`` 3.05 on
CPython 3.11 (4.58 before PR 16; newer interpreters inline
comprehensions and count fewer), on ``compiled`` 1.81 (2.58 before the
host kernel kept the byte-stream ACK and DATA paths in C, PR 17). A
per-tick scan, a per-flow config copy, a per-ACK helper chain or a
hand-back creeping into the per-packet path of ``HostKernel.sink``
shows here long before it shows in a timing.
"""

import os
import sys

import pytest

import repro
from repro.experiments.scale import Scale
from repro.experiments.scenarios import ScenarioConfig, run_scenario
from repro.sim import backend

#: Python-function calls into LAYERS per simulated event, by backend.
BUDGET = {"pure": 3.35, "compiled": 2.0}

LAYERS = tuple(
    os.path.join(os.path.dirname(os.path.abspath(repro.__file__)), layer) + os.sep
    for layer in ("transport", "stats", "core", "experiments")
)


def check_budget(name):
    config = ScenarioConfig(
        transport="dctcp", tlt=True, topology="star", enable_background=False,
        scale=Scale("budget", 1, 1, 6, 0, 1, 32), incast_flow_size=8_000,
        audit=False, shards=1, seed=1)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(LAYERS):
            calls += 1

    backend.set_backend(name)
    try:
        sys.setprofile(count)
        try:
            result = run_scenario(config)
        finally:
            sys.setprofile(None)
    finally:
        backend.set_backend(None)
    events = result.net.engine.events_processed
    assert result.stats.incomplete_flows() == 0 and result.stats.drops_red > 0
    assert events > 5_000
    per_event = calls / events
    assert per_event <= BUDGET[name], (
        f"{calls} Python calls into transport/stats/core/experiments for {events} "
        f"simulated events = {per_event:.2f} per event on {name}, budget {BUDGET[name]}")


def test_hot_layer_calls_per_event_stay_in_budget():
    check_budget("pure")


@pytest.mark.skipif(not backend.compiled_available(), reason="compiled backend not built")
def test_hot_layer_calls_per_event_stay_in_budget_compiled():
    check_budget("compiled")
