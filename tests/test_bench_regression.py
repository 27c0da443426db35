"""Tests for tools/check_bench_regression.py (the CI benchmark gate)."""

import importlib.util
import json
import os

import pytest

TOOL = os.path.join(os.path.dirname(__file__), "..", "tools",
                    "check_bench_regression.py")

spec = importlib.util.spec_from_file_location("check_bench_regression", TOOL)
tool = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tool)


def write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def pytest_benchmark_doc(rates, backend=None):
    # The fastest round (min) defines the rate; the mean is slower, as
    # on a real noisy runner.
    extra = {} if backend is None else {"backend": backend}
    return {
        "benchmarks": [
            {"name": name,
             "stats": {"min": events / rate, "mean": 1.2 * events / rate},
             "extra_info": {"events": events, **extra}}
            for name, (events, rate) in rates.items()
        ]
    }


def baseline_doc(rates, backend="pure"):
    return {"schema": 2, "backends": {backend: {"benchmarks": {
        name: {"events_per_sec": rate} for name, rate in rates.items()}}}}


def test_load_rates_pytest_benchmark_format(tmp_path):
    path = write(tmp_path / "run.json",
                 pytest_benchmark_doc({"bench_a": (100_000, 50_000.0)}))
    assert tool.load_rates(path) == {"bench_a": pytest.approx(50_000.0)}


def test_load_rates_prefers_fastest_round_over_mean(tmp_path):
    # Scheduling noise only adds time: the gate must rate benchmarks by
    # their fastest round, not a mean dragged down by slow outliers.
    path = write(tmp_path / "run.json", {
        "benchmarks": [{"name": "a", "stats": {"min": 0.5, "mean": 2.0},
                        "extra_info": {"events": 1000}}]
    })
    assert tool.load_rates(path) == {"a": pytest.approx(2000.0)}


def test_load_rates_without_events_uses_runs_per_sec(tmp_path):
    path = write(tmp_path / "run.json",
                 {"benchmarks": [{"name": "b", "stats": {"mean": 0.25}}]})
    assert tool.load_rates(path) == {"b": pytest.approx(4.0)}


def test_load_rates_rejects_unknown_format(tmp_path):
    path = write(tmp_path / "junk.json", {"something": 1})
    with pytest.raises(ValueError):
        tool.load_rates(path)


def test_gate_passes_within_threshold(tmp_path, capsys):
    current = write(tmp_path / "run.json",
                    pytest_benchmark_doc({"a": (1000, 80_000.0)}))
    baseline = write(tmp_path / "base.json",
                     baseline_doc({"a": 100_000.0}))
    assert tool.main([current, baseline, "--threshold", "0.25"]) == 0
    assert "gate passed" in capsys.readouterr().out


def test_gate_fails_beyond_threshold(tmp_path, capsys):
    current = write(tmp_path / "run.json",
                    pytest_benchmark_doc({"a": (1000, 70_000.0)}))
    baseline = write(tmp_path / "base.json",
                     baseline_doc({"a": 100_000.0}))
    assert tool.main([current, baseline, "--threshold", "0.25"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_gate_fails_when_benchmark_disappears(tmp_path, capsys):
    current = write(tmp_path / "run.json",
                    pytest_benchmark_doc({"other": (1000, 100_000.0)}))
    baseline = write(tmp_path / "base.json",
                     baseline_doc({"gone": 100_000.0}))
    assert tool.main([current, baseline]) == 1
    out = capsys.readouterr().out
    assert "disappeared" in out
    assert "new" in out  # the unexpected benchmark is reported, not gated


def test_new_benchmark_is_reported_but_not_gated(tmp_path, capsys):
    # A benchmark present in the run but absent from the baseline (a
    # freshly added microbenchmark) must not fail the gate: it is
    # listed as "new" and starts being gated once --update records it.
    current = write(tmp_path / "run.json",
                    pytest_benchmark_doc({"a": (1000, 100_000.0),
                                          "brand_new": (1000, 5.0)}))
    baseline = write(tmp_path / "base.json",
                     baseline_doc({"a": 100_000.0}))
    assert tool.main([current, baseline, "--threshold", "0.25"]) == 0
    out = capsys.readouterr().out
    assert "new" in out
    assert "brand_new" in out


def test_update_writes_normalized_baseline(tmp_path):
    current = write(tmp_path / "run.json",
                    pytest_benchmark_doc({"a": (1000, 50_000.0)}))
    baseline = tmp_path / "base.json"
    assert tool.main([current, str(baseline), "--update"]) == 0
    saved = json.loads(baseline.read_text())
    assert saved["schema"] == tool.BASELINE_SCHEMA
    # A run without backend annotation records under "pure".
    entry = saved["backends"]["pure"]["benchmarks"]["a"]
    assert entry["events_per_sec"] == pytest.approx(50_000.0)
    # Round-trips through load_baseline and passes against itself.
    assert tool.main([current, str(baseline)]) == 0


def test_empty_current_run_errors(tmp_path):
    current = write(tmp_path / "run.json", {"benchmarks": []})
    baseline = write(tmp_path / "base.json", baseline_doc({}))
    assert tool.main([current, baseline]) == 2


# -- per-backend baselines ---------------------------------------------------


def test_run_backend_autodetected_from_extra_info(tmp_path):
    path = write(tmp_path / "run.json",
                 pytest_benchmark_doc({"a": (1000, 50_000.0)},
                                      backend="compiled"))
    rates, backend = tool.load_run(path)
    assert backend == "compiled"
    assert rates == {"a": pytest.approx(50_000.0)}


@pytest.mark.parametrize("load", [tool.load_baseline, tool.load_run])
def test_flat_table_is_no_longer_a_format(load, tmp_path):
    # The schema-1 baseline / "normalized run" shape: rejected, not
    # read as pure's numbers.
    path = write(tmp_path / "flat.json",
                 {"schema": 1, "benchmarks": {"a": {"events_per_sec": 1.0}}})
    with pytest.raises(ValueError):
        load(path)


def test_compiled_run_gated_against_compiled_entry(tmp_path, capsys):
    # The compiled numbers are several times pure's: the gate must pick
    # the right table or a healthy compiled run would look like a 3x
    # regression (or a pure run like a free 3x win).
    current = write(tmp_path / "run.json",
                    pytest_benchmark_doc({"a": (1000, 290_000.0)},
                                         backend="compiled"))
    baseline = write(tmp_path / "base.json", {
        "schema": 2,
        "backends": {
            "pure": {"benchmarks": {"a": {"events_per_sec": 100_000.0}}},
            "compiled": {"benchmarks": {"a": {"events_per_sec": 300_000.0}}},
        },
    })
    assert tool.main([current, baseline, "--threshold", "0.25"]) == 0
    out = capsys.readouterr().out
    assert "backend: compiled" in out
    assert "gate passed" in out


def test_known_backend_missing_from_baseline_hard_errors(tmp_path, capsys):
    # A baseline that only covers pure: gating a compiled run against
    # it must be a hard error, not a silent pass (or a spurious
    # comparison against pure's numbers).
    current = write(tmp_path / "run.json",
                    pytest_benchmark_doc({"a": (1000, 300_000.0)},
                                         backend="compiled"))
    baseline = write(tmp_path / "base.json",
                     baseline_doc({"a": 100_000.0}))
    assert tool.main([current, baseline]) == 2
    assert "no entry for backend 'compiled'" in capsys.readouterr().err


def test_unknown_backend_is_reported_but_not_gated(tmp_path, capsys):
    current = write(tmp_path / "run.json",
                    pytest_benchmark_doc({"a": (1000, 5.0)},
                                         backend="experimental"))
    baseline = write(tmp_path / "base.json",
                     baseline_doc({"a": 100_000.0}))
    assert tool.main([current, baseline]) == 0
    assert "not gated" in capsys.readouterr().out


def test_backend_flag_overrides_detection(tmp_path, capsys):
    current = write(tmp_path / "run.json",
                    pytest_benchmark_doc({"a": (1000, 100_000.0)}))
    baseline = write(tmp_path / "base.json", {
        "schema": 2,
        "backends": {
            "compiled": {"benchmarks": {"a": {"events_per_sec": 100_000.0}}},
        },
    })
    # Auto-detection says pure (no annotation) -> hard error ...
    assert tool.main([current, baseline]) == 2
    # ... but --backend compiled selects the recorded table.
    assert tool.main([current, baseline, "--backend", "compiled"]) == 0


def test_update_preserves_other_backends(tmp_path):
    baseline = tmp_path / "base.json"
    pure = write(tmp_path / "pure.json",
                 pytest_benchmark_doc({"a": (1000, 100_000.0)}, backend="pure"))
    compiled = write(tmp_path / "compiled.json",
                     pytest_benchmark_doc({"a": (1000, 300_000.0)},
                                          backend="compiled"))
    assert tool.main([pure, str(baseline), "--update"]) == 0
    assert tool.main([compiled, str(baseline), "--update"]) == 0
    saved = json.loads(baseline.read_text())
    assert saved["backends"]["pure"]["benchmarks"]["a"]["events_per_sec"] == \
        pytest.approx(100_000.0)
    assert saved["backends"]["compiled"]["benchmarks"]["a"]["events_per_sec"] == \
        pytest.approx(300_000.0)
    # Both runs still pass against the merged baseline.
    assert tool.main([pure, str(baseline)]) == 0
    assert tool.main([compiled, str(baseline)]) == 0
