"""Tests for the experiment harness (tables, averaging, CLI, registry)."""

import importlib
import inspect
import statistics
import sys
from dataclasses import replace

import pytest

from repro.experiments.common import format_table, resolve_scale, run_grid
from repro.experiments.parallel import execution
from repro.experiments.runner import EXPERIMENTS, main
from repro.experiments.scale import SCALES, Scale
from repro.experiments.scenarios import ScenarioConfig, run_scenario

from tests.test_experiment_modules import MICRO


def test_format_table_alignment_and_rounding():
    rows = [{"a": 1.23456789, "b": "x"}, {"a": 10.0, "b": "longer"}]
    text = format_table(rows, ["a", "b"], title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "1.235" in text  # 4 significant digits
    assert "longer" in text


def test_format_table_missing_keys_blank():
    text = format_table([{"a": 1}], ["a", "b"])
    assert "b" in text  # header present even when values missing


def test_resolve_scale_accepts_names_and_objects():
    assert resolve_scale("tiny") is SCALES["tiny"]
    custom = Scale("x", 1, 2, 2, 5, 1, 1)
    assert resolve_scale(custom) is custom
    with pytest.raises(KeyError):
        resolve_scale("gigantic")


def test_run_averaged_reports_mean_and_std():
    # Differential: the grid's rows against run_scenario called directly
    # and averaged by hand, inline and through the pool.
    configs = [ScenarioConfig(transport="dctcp", scale=MICRO),
               ScenarioConfig(transport="dctcp", tlt=True, scale=MICRO)]
    seeds = (1, 2)
    by_hand = []
    for config in configs:
        samples = [run_scenario(replace(config, seed=seed)).summary_row() for seed in seeds]
        row = {}
        for key in samples[0]:
            values = [sample[key] for sample in samples]
            row[key] = statistics.fmean(values)
            row[key + "_std"] = statistics.stdev(values)
        by_hand.append(row)
    assert by_hand[0]["bg_avg_ms_std"] > 0  # seeds actually differ
    for jobs in (1, 2):
        with execution(jobs=jobs):
            assert run_grid(configs, seeds) == by_hand


def test_registry_covers_every_figure_and_table():
    figs = {f"fig{n:02d}" for n in (1, 2, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18)}
    assert figs.issubset(EXPERIMENTS)
    assert "table1" in EXPERIMENTS


def test_every_experiment_module_importable_with_run_and_tables():
    # The module contract: run(scale, seeds=<default>) and TABLES; the
    # CLI is the only thing that prints (the columns are checked against
    # real rows in tests/test_experiment_modules.py).
    for module_name in EXPERIMENTS.values():
        module = importlib.import_module(module_name)
        parameters = inspect.signature(module.run).parameters
        assert list(parameters)[:2] == ["scale", "seeds"], module_name
        assert len(parameters["seeds"].default) >= 1, module_name
        assert module.TABLES and not hasattr(module, "main"), module_name
        assert isinstance(module.CLAIMS, dict), module_name
        for title, columns in module.TABLES.values():
            assert title and columns, module_name


def test_cli_list():
    assert main(["list"]) == 0


def test_cli_unknown_experiment():
    assert main(["fig99"]) == 2


def test_cli_rejects_bad_seed_count():
    assert main(["fig05", "--seeds", "0"]) == 2


def test_cli_ends_on_a_refused_mode_pair_with_one_line(monkeypatch, capsys):
    monkeypatch.setenv("TLT_SHARDS", "1")  # main sets it; restored after
    # fig12 runs its own workload on the testbed star: neither can shard.
    assert main(["fig12", "--scale", "tiny", "--no-cache", "--shards", "2"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("fig12: shards > 1 and custom traffic do not combine")


def test_cli_ends_on_a_malformed_spec_with_one_line(monkeypatch, capsys, tmp_path):
    monkeypatch.setenv("TLT_FAULTS", "")  # main sets it; restored after
    faults = tmp_path / "faults.json"
    faults.write_text('{"events": [{"time_ns": "soon", "kind": "link_down", "target": "tor0:0"}]}')
    assert main(["fig13", "--scale", "tiny", "--no-cache", "--faults", str(faults)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err == ("fig13: faults.events[0].time_ns: expected a non-negative int, "
                   "got 'soon'\n")


def test_cli_flags_configure_execution_context(monkeypatch):
    from repro.experiments.parallel import get_context
    from tests import stub_experiment

    monkeypatch.setitem(EXPERIMENTS, "stub", "tests.stub_experiment")
    assert main(["stub", "--scale", "tiny", "--jobs", "3", "--no-cache",
                 "--timeout", "7.5"]) == 0
    context = get_context()
    assert context.jobs == 3
    assert context.use_cache is False
    assert context.timeout_s == 7.5
    assert stub_experiment.LAST_CALL["scale"] == "tiny"


def test_cli_seeds_passed_to_module_run(monkeypatch, capsys):
    from tests import stub_experiment

    monkeypatch.setitem(EXPERIMENTS, "stub", "tests.stub_experiment")
    assert main(["stub", "--scale", "tiny", "--seeds", "4"]) == 0
    assert stub_experiment.LAST_CALL["seeds"] == (1, 2, 3, 4)
    out = capsys.readouterr().out
    assert "stub" in out and "4" in out  # value column = seed count


def test_cli_seeds_reach_every_registry_module(monkeypatch, capsys):
    calls = {}
    for name, module_name in EXPERIMENTS.items():
        module = importlib.import_module(module_name)

        def run(*args, _name=name, _module=module,
                _signature=inspect.signature(module.run), **kwargs):
            # Binds as the real run() would: a module without ``seeds`` fails here.
            calls[_name] = _signature.bind(*args, **kwargs).arguments
            return [] if "" in _module.TABLES else {part: [] for part in _module.TABLES}

        monkeypatch.setattr(module, "run", run)
        monkeypatch.setattr(module, "CLAIMS", {})  # no rows to judge
    assert main(["all", "--scale", "tiny", "--seeds", "2"]) == 0
    assert {name: call["seeds"] for name, call in calls.items()} == \
        {name: (1, 2) for name in EXPERIMENTS}
    assert all(call["scale"] == "tiny" for call in calls.values())
    captured = capsys.readouterr()
    assert "ignored" not in captured.out + captured.err


def test_cli_prints_and_writes_every_part_from_tables(monkeypatch, tmp_path, capsys):
    import types

    module = types.ModuleType("tests._two_part_stub")
    module.TABLES = {"a": ("Panel A", ["x"]), "b": ("Panel B", ["y"])}
    module.CLAIMS = {}
    module.run = lambda scale, seeds=(1,): {"a": [{"x": 1.0, "extra": 2.0}], "b": [{"y": 3.0}]}
    monkeypatch.setitem(sys.modules, "tests._two_part_stub", module)
    monkeypatch.setitem(EXPERIMENTS, "two", "tests._two_part_stub")
    assert main(["two", "--csv", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "Panel A" in out and "Panel B" in out and "extra" not in out.split("wrote")[0]
    # The CSV carries every column, not just the printed ones.
    assert (tmp_path / "two_a.csv").read_text().splitlines()[0] == "x,extra"
    assert (tmp_path / "two_b.csv").read_text().splitlines() == ["y", "3.0"]


def test_cli_footer_names_runs_cached_runs_and_backend(monkeypatch, capsys):
    from repro.sim.backend import current_backend

    monkeypatch.setitem(EXPERIMENTS, "stub", "tests.stub_experiment")
    assert main(["stub", "--scale", "tiny"]) == 0
    footer = capsys.readouterr().out.strip().splitlines()[-1]
    assert footer.startswith(f"[stub: 0 runs (0 cached), {current_backend()}, ")
    assert " s elapsed at --jobs 1, " in footer and footer.endswith("]")


def test_cli_csv_writes_the_manifest_document_beside_the_rows(monkeypatch, tmp_path, capsys):
    import json

    from repro.experiments.manifest import SCHEMA

    monkeypatch.setitem(EXPERIMENTS, "stub", "tests.stub_experiment")
    assert main(["stub", "--scale", "tiny", "--csv", str(tmp_path)]) == 0
    assert (tmp_path / "stub.csv").exists()
    doc = json.loads((tmp_path / "stub.manifest.json").read_text())
    assert doc["schema"] == SCHEMA and doc["experiment"] == "stub"
    assert doc["runs"] == doc["cached_runs"] == doc["retries"] == 0 and doc["manifests"] == []
    assert doc["jobs"] == 1 and doc["elapsed_s"] >= 0
    # The claims: a table under the module's, and a list in the document.
    assert doc["claims"] == [
        {"claim": "one-seed", "paper": "The stub averages one seed", "measured": 1.0,
         "verdict": "✔"},
        {"claim": "two-seeds", "paper": "The stub averages two seeds", "measured": "one seed",
         "verdict": "✘"},
    ]
    out = capsys.readouterr().out
    table = out[out.index("stub: the paper's claims"):].splitlines()
    assert table[1].split() == ["claim", "verdict", "measured", "paper"]
    assert table[3].split()[:3] == ["one-seed", "✔", "1"]
    assert table[4].split()[:4] == ["two-seeds", "✘", "one", "seed"]

    from tests.test_telemetry import _load_checker

    checker = _load_checker()
    assert not checker.check_dir(str(tmp_path))[2]
    (tmp_path / "stub.manifest.json").write_text(json.dumps({**doc, "retries": 1}))
    assert any("retries" in error for error in checker.check_dir(str(tmp_path))[2])
    (tmp_path / "stub.manifest.json").write_text(json.dumps({**doc, "collect_s": -1.0}))
    assert any("collect_s" in error for error in checker.check_dir(str(tmp_path))[2])
    assert doc["code"] and doc["backend"]


def test_cli_report_flags_are_gone():
    for flag in ("--out", "--only"):
        with pytest.raises(SystemExit):
            main(["fig05", flag, "x"])
