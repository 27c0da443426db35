"""Tests for the experiment harness (tables, averaging, CLI, registry)."""

import importlib
import sys

import pytest

from repro.experiments.common import format_table, resolve_scale, run_averaged
from repro.experiments.runner import EXPERIMENTS, main
from repro.experiments.scale import SCALES, Scale
from repro.experiments.scenarios import ScenarioConfig


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
    fast = Scale("fast", 1, 2, 2, 6, 1, 2)
    config = ScenarioConfig(transport="dctcp", scale=fast)
    row = run_averaged(config, seeds=(1, 2))
    assert "fg_p99_ms" in row
    assert "fg_p99_ms_std" in row


def test_registry_covers_every_figure_and_table():
    figs = {f"fig{n:02d}" for n in (1, 2, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18)}
    assert figs.issubset(EXPERIMENTS)
    assert "table1" in EXPERIMENTS


def test_every_experiment_module_importable_with_run_and_main():
    for module_name in EXPERIMENTS.values():
        module = importlib.import_module(module_name)
        assert hasattr(module, "run")
        assert hasattr(module, "main")


def test_cli_list():
    assert main(["list"]) == 0


def test_cli_unknown_experiment():
    assert main(["fig99"]) == 2


def test_cli_rejects_bad_seed_count():
    assert main(["fig05", "--seeds", "0"]) == 2


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


def test_cli_seeds_ignored_on_single_seed_modules(monkeypatch, capsys):
    import types

    module = types.ModuleType("tests._single_seed_stub")

    def run(scale="small", seed: int = 1):
        return [{"v": 1.0}]

    module.run = run
    module.main = lambda scale="small": None
    monkeypatch.setitem(sys.modules, "tests._single_seed_stub", module)
    monkeypatch.setitem(EXPERIMENTS, "sstub", "tests._single_seed_stub")
    assert main(["sstub", "--seeds", "3"]) == 0
    assert "single-seed" in capsys.readouterr().err


def test_cli_footer_names_runs_cached_runs_and_backend(monkeypatch, capsys):
    from repro.sim.backend import current_backend

    monkeypatch.setitem(EXPERIMENTS, "stub", "tests.stub_experiment")
    assert main(["stub", "--scale", "tiny"]) == 0
    footer = capsys.readouterr().out.strip().splitlines()[-1]
    assert footer.startswith(f"[stub: 0 runs (0 cached), {current_backend()}, ")
    assert footer.endswith("]")


def test_cli_csv_writes_the_manifest_document_beside_the_rows(monkeypatch, tmp_path):
    import json

    from repro.experiments.manifest import SCHEMA

    monkeypatch.setitem(EXPERIMENTS, "stub", "tests.stub_experiment")
    assert main(["stub", "--scale", "tiny", "--csv", str(tmp_path)]) == 0
    assert (tmp_path / "stub.csv").exists()
    doc = json.loads((tmp_path / "stub.manifest.json").read_text())
    assert doc["schema"] == SCHEMA and doc["experiment"] == "stub"
    assert doc["runs"] == doc["cached_runs"] == 0 and doc["manifests"] == []
    assert doc["code"] and doc["backend"]


def test_cli_report_flags_are_gone():
    for flag in ("--out", "--only"):
        with pytest.raises(SystemExit):
            main(["fig05", flag, "x"])
