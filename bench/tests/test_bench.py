"""Tests of the benchmark itself (``pytest bench/tests``; not tier-1).

They run the real command at ``--quick`` (TINY) sizes, so they need a
C compiler, like the benchmark does, and take about two minutes.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import compare  # noqa: E402
import layers  # noqa: E402
import spec  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def run_py(*args, env=None, cwd=ROOT, script=os.path.join(BENCH, "run.py")):
    return subprocess.run([sys.executable, script, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def child_py(mode, backend, workload, seed, env=None):
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "child.py"), mode, "--backend", backend,
         "--workload", workload, "--seed", str(seed), "--quick"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def quick_all(tmp_path_factory):
    """One ``--quick`` end-to-end run of all four workloads (also builds
    the compiled kernel the other tests' children import)."""
    out = tmp_path_factory.mktemp("bench") / "quick.json"
    started = time.perf_counter()
    done = run_py("--quick", "--seconds", "1", "--out", str(out))
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stderr
    return done.stdout, json.loads(out.read_text())["runs"], elapsed


# -- the contract of BENCHMARK.json ------------------------------------------------


def test_benchmark_json_is_what_spec_generates():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        assert json.load(handle) == spec.benchmark_json()


def test_schema_of_the_metric_definitions():
    document = spec.benchmark_json()
    assert set(document) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert 2 <= len(document["workloads"]) <= 8
    assert 1 <= len(document["end_to_end"]) <= 16
    assert 1 <= len(document["per_layer"]) <= 128
    names = [w["name"] for w in document["workloads"]]
    for workload in document["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in document["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in document["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in document["end_to_end"] + document["per_layer"]:
        names.append(metric["name"])
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert all(NAME.match(name) for name in names)
    assert len(set(names)) == len(names)
    setup = [m for m in document["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in document["end_to_end"])
    assert len(json.dumps(document)) < 64 * 1024


def test_every_source_file_has_a_layer():
    package = os.path.join(ROOT, "src", "repro")
    unmapped = []
    for directory, _dirs, files in os.walk(package):
        for name in files:
            if name.endswith((".py", ".c")):
                relative = os.path.relpath(os.path.join(directory, name), package)
                if layers.layer_of_path(relative.replace(os.sep, "/")) is None:
                    unmapped.append(relative)
    assert not unmapped, f"add these to layers.LAYER_PATHS: {unmapped}"
    assert set(layers.LAYERS) == set(layers.LAYER_PATHS) | {"sim.ckernel"}


def test_host_cost_follows_the_host_and_drops_a_burst():
    import hostspeed

    quiet = [(0.50, 100_000, 1.0)] * 5
    # A host 1.4x slower slows sub-runs and calibration loops alike ...
    slow = [(cpu * 1.4, events, 1.4) for cpu, events, _ in quiet]
    # ... a burst that hits one sub-run alone is dropped by the median.
    burst = quiet[:4] + [(0.90, 100_000, 1.0)]
    for samples in (quiet, slow, burst):
        assert hostspeed.host_cost(samples, 500_000) == pytest.approx(2.5)
    once = hostspeed.calibrate()
    assert 0.2 < hostspeed.slowness(once, once) < 20


def test_probes_match_their_names():
    import probes

    assert tuple(probes.PROBES) == spec.PROBE_NAMES


# -- the command -------------------------------------------------------------------


def test_quick_run_of_all_workloads(quick_all):
    stdout, runs, elapsed = quick_all
    assert elapsed < 60, f"--quick took {elapsed:.0f} s"
    results = [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]
    assert [run["provenance"]["workload"] for run in runs] == list(spec.WORKLOADS)
    assert len(results) == len(spec.WORKLOADS)
    for result, run in zip(results, runs):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert isinstance(result["attempted"], int) and result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in spec.END_TO_END]
        for definition in spec.END_TO_END:
            metric = result["metrics"][definition["name"]]
            assert set(metric) == {"value", "unit"} and metric["unit"] == definition["unit"]
            assert metric["value"] > 0
        stamp = run["provenance"]
        assert len(stamp["ckernel_source_sha256"]) == 64 and stamp["nproc"] >= 1
        assert run["checks"]["sensitivity_ok"] in (True, False)
    assert stdout.rstrip().splitlines()[-1].startswith('{"correct"')


@pytest.mark.parametrize("workload", ["incast-star", "service-open-loop"])
def test_traced_run_shares_sum_to_one(quick_all, workload):
    done = run_py("--quick", "--trace", "1", "--workload", workload)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    assert list(metrics) == [m["name"] for m in spec.PER_LAYER]
    assert result["correct"] is True
    for backend in spec.BACKENDS:
        other = metrics[f"trace.other_share.{backend}"]
        total = other + sum(metrics[f"{layer}.self_share.{backend}"] for layer in layers.LAYERS)
        assert abs(total - 1.0) <= 0.02 and other <= 0.05
        assert metrics[f"offpath.self_share.{backend}"] == 0.0
        assert metrics[f"trace.overhead_x.{backend}"] > 1.0
    assert metrics["sim.ckernel.self_share.pure"] == 0.0
    assert metrics["sim.ckernel.self_share.compiled"] > 0.05
    assert (metrics["service.requests"] > 0) == (workload == "service-open-loop")


def test_outside_a_checkout_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = run_py("--workload", "incast-star", "--seed", "1", "--seconds", "10", "--trace", "0",
                  cwd=tmp_path, script=str(tmp_path / "bench" / "run.py"))
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())


# -- determinism and hygiene -------------------------------------------------------

SIMULATED = ("digest", "p99_ms", "p50_ms", "rto_free_per_kflow", "goodput_gbps", "events",
             "frames", "link_bytes", "rto_fires", "drops_red", "ecn_marks", "rtt_samples")


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_same_seed_repeats_exactly_and_another_seed_differs(quick_all, workload):
    first = child_py("timed", "compiled", workload, 1)
    again = child_py("timed", "compiled", workload, 1)
    other = child_py("timed", "compiled", workload, 2)
    for variant in spec.VARIANTS:
        assert [first[variant][k] for k in SIMULATED] == [again[variant][k] for k in SIMULATED]
        assert first[variant]["digest"] != other[variant]["digest"]
        assert first[variant]["p99_ms"] != other[variant]["p99_ms"]


def test_leaked_toggles_in_the_parent_change_nothing(quick_all):
    """``TLT_*`` variables set by whoever launches the benchmark reach
    neither the backend choice nor the scenario."""
    clean = child_py("timed", "pure", "fabric96-mixed", 1)
    leaked = child_py("timed", "pure", "fabric96-mixed", 1, env=dict(
        os.environ, TLT_AUDIT="1", TLT_BACKEND="compiled", TLT_SHARDS="2",
        TLT_LINK_BATCH="0", TLT_TELEMETRY="/nonexistent/dir"))
    assert leaked["backend"] == "pure"
    for variant in spec.VARIANTS:
        assert leaked[variant]["audited"] is False
        assert leaked[variant]["digest"] == clean[variant]["digest"]


# -- compare.py ---------------------------------------------------------------------


def _run_set(wall, p99, seeds=range(1, 11)):
    return {("incast-star", 0): {
        seed: {"cpu_s.pure": wall(seed), "sim_p99_ms.base": p99(seed)} for seed in seeds}}


def _status(lines, metric, status) -> bool:
    return any(metric in line and line.endswith(status) for line in lines)


def test_compare_verdicts():
    steady = _run_set(lambda s: 5.0 + 0.01 * s, lambda s: 4.0 + 0.001 * s)
    lines, failures = compare.compare(steady, steady)
    assert failures == 0 and _status(lines, "cpu_s.pure", "ok")

    slower = _run_set(lambda s: 1.3 * (5.0 + 0.01 * s), lambda s: 4.0 + 0.001 * s)
    lines, failures = compare.compare(steady, slower)
    assert failures == 1 and _status(lines, "cpu_s.pure", "regression")

    noisy = _run_set(lambda s: 5.0 + 0.4 * s, lambda s: 4.0 + 0.001 * s)
    lines, failures = compare.compare(steady, noisy)
    assert failures == 1 and _status(lines, "cpu_s.pure", "unresolved")

    faster = _run_set(lambda s: 3.0 + 0.01 * s, lambda s: 4.0 + 0.001 * s)
    lines, failures = compare.compare(steady, faster)
    assert failures == 0 and _status(lines, "cpu_s.pure", "better")

    moved = _run_set(lambda s: 5.0 + 0.01 * s, lambda s: 4.0 + 0.001 * s + (s == 3) * 1e-9)
    lines, failures = compare.compare(steady, moved)
    assert failures == 1 and "DIFFER: seed 3 sim_p99_ms.base" in lines[-1]
