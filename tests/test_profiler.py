"""Tests for ``tlt-experiment --profile``: a cProfile dump plus the
experiment's manifest document with the engine's per-callback
attribution (``repro.sim.backend.set_attribution``) as ``callbacks``."""

import json
import pstats
import sys
import types

import pytest

from repro.experiments.manifest import SCHEMA
from repro.experiments.parallel import execution
from repro.experiments.runner import EXPERIMENTS, _callbacks, main
from repro.sim import backend as backend_mod
from repro.sim import engine as engine_mod
from repro.sim.engine import Engine


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


def profile_cli(body, tmp_path, monkeypatch) -> dict:
    """``tlt-experiment unit --profile`` with ``body`` as the experiment;
    returns the parsed ``profile_unit.json``."""
    module = types.ModuleType("tests._profiled_stub")

    def run(scale="small", seeds=(1,)):
        body()
        return []

    module.run = run
    module.TABLES = {"": ("unit", ["n"])}
    module.CLAIMS = {}
    monkeypatch.setitem(sys.modules, module.__name__, module)
    monkeypatch.setitem(EXPERIMENTS, "unit", module.__name__)
    with execution():  # --profile forces --jobs 1 --no-cache: not on later tests
        assert main(["unit", "--profile", "--profile-dir", str(tmp_path)]) == 0
    with open(tmp_path / "profile_unit.json") as fh:
        return json.load(fh)


def test_profiler_writes_pstats_and_json(tmp_path, monkeypatch):
    doc = profile_cli(run_small_sim, tmp_path, monkeypatch)

    # The pstats dump loads and contains the engine's run loop.
    stats = pstats.Stats(str(tmp_path / "profile_unit.pstats"))
    assert any(name == "run" for (_f, _l, name) in stats.stats)

    assert doc["schema"] == SCHEMA
    assert doc["experiment"] == "unit"
    assert doc["callbacks"]["events"] == 500
    callbacks = {row["callback"]: row for row in doc["callbacks"]["rows"]}
    assert callbacks["tick"]["calls"] == 500
    assert callbacks["tick"]["total_ms"] >= 0


def test_attribution_cleared_after_exit(tmp_path, monkeypatch):
    profile_cli(run_small_sim, tmp_path, monkeypatch)
    assert engine_mod._ATTRIBUTION is None
    # Runs after the profiled experiment are not attributed anywhere.
    run_small_sim()
    assert engine_mod._ATTRIBUTION is None


def test_attribution_cleared_on_exception(tmp_path, monkeypatch):
    class Boom(RuntimeError):
        pass

    def body():
        raise Boom()

    with pytest.raises(Boom):
        profile_cli(body, tmp_path, monkeypatch)
    assert engine_mod._ATTRIBUTION is None
    # No files written for a failed experiment.
    assert not (tmp_path / "profile_unit.json").exists()


def test_summary_available_without_write(tmp_path, monkeypatch):
    # The section is a function of the table: no file, no CLI.
    table = {}
    backend_mod.set_attribution(table)
    try:
        run_small_sim()
    finally:
        backend_mod.set_attribution(None)
    section = _callbacks(table, top=5)
    assert len(section["rows"]) <= 5
    assert section["events"] == 500


def test_summary_reports_backend(tmp_path, monkeypatch):
    # A saved profile must say which hot-path backend produced it, and
    # account for every event of the runs it covers.
    from repro.experiments.scale import Scale
    from repro.experiments.scenarios import ScenarioConfig, run_scenario

    micro = Scale("micro", 1, 2, 2, 6, 1, 2)
    doc = profile_cli(
        lambda: run_scenario(ScenarioConfig(transport="dctcp", tlt=True, scale=micro)),
        tmp_path, monkeypatch)
    assert doc["runs"] == 1 and doc["cached_runs"] == 0
    assert doc["backend"] == doc["manifests"][0]["backend"] == backend_mod.current_backend()
    assert doc["events"] == doc["callbacks"]["events"] > 0
    assert doc["callbacks"]["rows"]


def test_link_delivery_attribution(tmp_path, monkeypatch):
    # Batched-drain time is broken out of the callback table: a run
    # with real link traffic reports Port._drain's share of it.
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

    def body():
        engine = Engine()
        a = Port(engine, _Sink(), 0, 100_000_000_000, 1_000)
        b = Port(engine, _Sink(), 0, 100_000_000_000, 1_000)
        connect(a, b)
        for i in range(50):
            engine.schedule_anon(i * 10, a._tx_cb, _Frame())
        engine.run()

    section = profile_cli(body, tmp_path, monkeypatch)["callbacks"]
    drains = [row for row in section["rows"] if row["callback"].endswith("_drain")]
    assert sum(row["calls"] for row in drains) == 50
    assert 0.0 < section["drain_share"] <= 1.0


# -- the compiled engine attributes callbacks the same way -------------------


@pytest.mark.skipif(not backend_mod.compiled_available(), reason="compiled backend not built")
@pytest.mark.parametrize("name", ["test_summary_available_without_write",
                                  "test_link_delivery_attribution"])
def test_compiled_engine_attributes_callbacks(name, tmp_path, monkeypatch):
    """``CEngine`` dispatching under attribution (``--profile``): per-callback
    calls and time land in the same table, under the same keys."""
    monkeypatch.setitem(globals(), "Engine", backend_mod._compiled_module().CEngine)
    globals()[name](tmp_path, monkeypatch)
