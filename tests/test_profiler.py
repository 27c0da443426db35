"""Tests for the profiling harness (repro.sim.profiler)."""

import json
import os
import pstats

import pytest

from repro.sim import backend as backend_mod
from repro.sim import engine as engine_mod
from repro.sim.engine import Engine
from repro.sim.profiler import Profiler


def tick(counter):
    counter["n"] += 1


def run_small_sim():
    engine = Engine()
    counter = {"n": 0}
    for i in range(500):
        engine.schedule(i, tick, counter)
    engine.run()
    assert counter["n"] == 500
    return engine


def test_profiler_writes_pstats_and_json(tmp_path):
    with Profiler(tag="unit", out_dir=str(tmp_path)) as prof:
        run_small_sim()

    assert prof.pstats_path == str(tmp_path / "profile_unit.pstats")
    assert prof.json_path == str(tmp_path / "profile_unit.json")
    assert os.path.exists(prof.pstats_path)
    assert os.path.exists(prof.json_path)

    # The pstats dump loads and contains the engine's run loop.
    stats = pstats.Stats(prof.pstats_path)
    assert any(name == "run" for (_f, _l, name) in stats.stats)

    with open(prof.json_path) as fh:
        summary = json.load(fh)
    assert summary["schema"] == 2
    assert summary["tag"] == "unit"
    assert summary["wall_s"] > 0
    assert summary["events_attributed"] == 500
    assert summary["hotspots"], "cProfile hotspots missing"
    callbacks = {row["callback"]: row for row in summary["callbacks"]}
    assert callbacks["tick"]["calls"] == 500
    assert callbacks["tick"]["total_ms"] >= 0


def test_attribution_cleared_after_exit(tmp_path):
    with Profiler(tag="cleanup", out_dir=str(tmp_path)):
        run_small_sim()
    assert engine_mod._ATTRIBUTION is None
    # Runs after the profiler exits are not attributed anywhere.
    before = dict()
    run_small_sim()
    assert engine_mod._ATTRIBUTION is None
    assert before == {}


def test_attribution_cleared_on_exception(tmp_path):
    class Boom(RuntimeError):
        pass

    try:
        with Profiler(tag="boom", out_dir=str(tmp_path)):
            raise Boom()
    except Boom:
        pass
    assert engine_mod._ATTRIBUTION is None
    # No files written for a failed block.
    assert not os.path.exists(tmp_path / "profile_boom.json")


def test_summary_available_without_write(tmp_path):
    prof = Profiler(tag="mem", out_dir=str(tmp_path), top=5)
    with prof:
        run_small_sim()
    summary = prof.summary()
    assert len(summary["hotspots"]) <= 5
    assert summary["events_attributed"] == 500


def test_summary_reports_backend(tmp_path):
    # A saved profile must say which hot-path backend produced it.
    from repro.sim import backend as backend_mod

    prof = Profiler(tag="backend", out_dir=str(tmp_path))
    with prof:
        run_small_sim()
    section = prof.summary()["backend"]
    assert section["name"] == backend_mod.current_backend()
    assert isinstance(section["compiled_available"], bool)
    assert section["note"]  # every known backend has an explanation


def test_link_delivery_attribution(tmp_path):
    # Batched-drain time is broken out of the callback table: a run
    # with real link traffic attributes Port._drain under link_delivery.
    from repro.net.link import Port, connect

    class _Sink:
        def poll(self, port):
            return None

        def receive(self, packet, port):
            pass

        def receive_pause(self, duration_ns, port):
            pass

    class _Frame:
        size = 1500

    prof = Profiler(tag="drain", out_dir=str(tmp_path))
    with prof:
        engine = Engine()
        a = Port(engine, _Sink(), 0, 100_000_000_000, 1_000)
        b = Port(engine, _Sink(), 0, 100_000_000_000, 1_000)
        connect(a, b)
        for i in range(50):
            engine.schedule_anon(i * 10, a._tx_cb, _Frame())
        engine.run()
    section = prof.summary()["link_delivery"]
    assert section["drain_calls"] == 50
    assert section["drain_ms"] >= 0
    assert 0.0 <= section["share_of_attributed"] <= 1.0
    assert any(row["callback"].endswith("_drain") for row in section["callbacks"])


# -- the compiled engine attributes callbacks the same way -------------------


@pytest.mark.skipif(not backend_mod.compiled_available(), reason="compiled backend not built")
@pytest.mark.parametrize("name", ["test_summary_available_without_write",
                                  "test_link_delivery_attribution"])
def test_compiled_engine_attributes_callbacks(name, tmp_path, monkeypatch):
    """``CEngine`` dispatching under attribution (``--profile``): per-callback
    calls and time land in the same table, under the same keys."""
    monkeypatch.setitem(globals(), "Engine", backend_mod._compiled_module().CEngine)
    globals()[name](tmp_path)
