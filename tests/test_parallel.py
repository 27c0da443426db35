"""Tests for the parallel experiment execution engine.

Covers the tentpole guarantees: parallel output is bit-identical to
serial, results come back in submission order, worker crashes/hangs
are retried once and then reported as failed rows, and a grid of runs
is one job-runner call whose reducer must be importable.
"""

from dataclasses import replace

import pytest

from repro.experiments.cache import ResultCache
from repro.experiments.common import run_grid
from repro.experiments.manifest import LOG, summarize
from repro.experiments.parallel import (
    ExecutionContext,
    Job,
    configure,
    execution,
    get_context,
    metrics_reference,
    resolve_metrics,
    run_jobs,
)
from repro.experiments.scale import Scale
from repro.experiments.scenarios import ScenarioConfig

import tests.util as util

#: Smallest scenario that still runs the full pipeline (~0.2 s/run).
FAST = Scale("fast-par", num_spines=1, num_tors=2, hosts_per_tor=2,
             bg_flows=4, incast_events=1, incast_flows_per_sender=1)


def fast_config(**overrides) -> ScenarioConfig:
    return ScenarioConfig(transport="tcp", scale=FAST, **overrides)


# -- determinism -------------------------------------------------------------


def test_parallel_rows_bit_identical_to_serial():
    config = fast_config()
    with execution(jobs=1, use_cache=False):
        serial = run_grid([config], (1, 2, 3))
    with execution(jobs=4, use_cache=False):
        parallel_rows = run_grid([config], (1, 2, 3))
    assert parallel_rows == serial
    assert serial[0]["bg_avg_ms_std"] > 0  # seeds actually differ


def test_run_jobs_returns_submission_order():
    jobs = [Job(i, fast_config(), seed) for i, seed in enumerate((3, 1, 2))]
    results = run_jobs(jobs, jobs_n=3, use_cache=False)
    assert [r.index for r in results] == [0, 1, 2]
    assert all(r.ok and not r.cached and r.manifest["events"] > 0 for r in results)


def test_pool_manifests_are_logged_in_submission_order():
    # Seed 1's worker outlives seed 2's, so the pool hands seed 2 back first.
    jobs = [Job(i, fast_config(), seed, metrics="tests.util:slow_on_seed1_metrics")
            for i, seed in enumerate((1, 2))]
    LOG.clear()
    results = run_jobs(jobs, jobs_n=2, use_cache=False)
    assert [m["seed"] for m in LOG] == [1, 2]
    assert [r.manifest for r in results] == list(LOG)


def test_run_jobs_rejects_duplicate_indices():
    jobs = [Job(0, fast_config(), 1), Job(0, fast_config(), 2)]
    with pytest.raises(ValueError, match="duplicate"):
        run_jobs(jobs, jobs_n=1, use_cache=False)


# -- fault tolerance ---------------------------------------------------------


def test_metrics_exception_reported_as_failed_row():
    jobs = [
        Job(0, fast_config(), 1),
        Job(1, fast_config(), 1, metrics="tests.util:crashing_metrics"),
    ]
    results = run_jobs(jobs, jobs_n=2, use_cache=False)
    assert results[0].ok
    assert not results[1].ok
    assert "injected metrics failure" in results[1].error
    assert results[1].attempts == 2  # retried once before giving up


def test_worker_hard_crash_reported():
    jobs = [Job(0, fast_config(), 1, metrics="tests.util:exiting_metrics")]
    [result] = run_jobs(jobs, jobs_n=2, use_cache=False)
    assert not result.ok
    assert "exited with code 17" in result.error
    assert result.attempts == 2


def test_worker_crash_retry_succeeds(tmp_path, monkeypatch):
    marker = tmp_path / "first-attempt"
    monkeypatch.setenv("TLT_TEST_FLAKY", str(marker))
    jobs = [Job(0, fast_config(), 1, metrics="tests.util:flaky_once_metrics")]
    [result] = run_jobs(jobs, jobs_n=2, use_cache=False)
    assert result.ok
    assert result.attempts == 2
    assert marker.exists()


def test_hung_worker_killed_after_timeout():
    jobs = [Job(0, fast_config(), 1, metrics="tests.util:sleeping_metrics")]
    [result] = run_jobs(jobs, jobs_n=2, use_cache=False, timeout_s=1.5, retries=0)
    assert not result.ok
    assert "timed out" in result.error
    assert result.attempts == 1


def test_serial_inline_failure_does_not_kill_sweep():
    jobs = [
        Job(0, fast_config(), 1, metrics="tests.util:crashing_metrics"),
        Job(1, fast_config(), 1),
    ]
    results = run_jobs(jobs, jobs_n=1, use_cache=False)
    assert not results[0].ok and "injected" in results[0].error
    assert results[1].ok


# -- run_grid integration ------------------------------------------------------


def test_run_averaged_partial_failure_averages_survivors(capsys):
    with execution(jobs=2):
        rows = run_grid([fast_config(), fast_config(tlt=True)], (1, 2),
                        util.fail_on_seed2_metrics)
    assert [row["fg_p99_ms_std"] for row in rows] == [0.0, 0.0]  # only seed 1 survived
    err = capsys.readouterr().err
    assert "point 0 (tcp): averaging over 1/2 seeds (seed 2" in err
    assert "point 1 (tcp+tlt): averaging over 1/2 seeds (seed 2" in err


def test_run_averaged_raises_when_every_seed_fails():
    with execution(jobs=2), \
            pytest.raises(RuntimeError, match=r"point 0 \(tcp\): every seed failed"):
        run_grid([fast_config()], (1, 2), util.crashing_metrics)


def test_run_grid_lambda_metrics_is_a_type_error():
    with pytest.raises(TypeError, match="not importable"):
        run_grid([fast_config()], (1,), lambda r: {"x": 2.0})


def test_run_averaged_std_always_emitted_for_single_seed():
    [row] = run_grid([fast_config()], (1,))
    assert row["fg_p99_ms_std"] == 0.0
    assert set(k for k in row if k.endswith("_std")) == \
        set(k + "_std" for k in row if not k.endswith("_std"))


def test_run_grid_without_seeds_runs_each_config_under_its_own():
    configs = [fast_config(seed=2), fast_config(seed=3)]
    assert run_grid(configs, None) == \
        [row for seed in (2, 3) for row in run_grid([fast_config()], (seed,))]


def test_run_grid_submits_equal_cache_keys_once():
    LOG.clear()
    rows = run_grid([fast_config(), fast_config(tlt=True), fast_config()], (1,))
    assert len(LOG) == 2 and rows[0] == rows[2] != rows[1]


# -- a job's own workload ------------------------------------------------------


def _incast_job(flows: int = 8) -> Job:
    from repro.experiments.fig14_incast_microbench import (
        IncastGets,
        incast_metrics,
        scheme_config,
    )

    return Job(0, scheme_config("tcp", "tlt"), 1, metrics_reference(incast_metrics),
               IncastGets(flows, runs=1))


def test_points_that_differ_only_in_their_workload_have_different_keys():
    plain = replace(_incast_job(), traffic=None)
    keys = [job.cache_key() for job in (plain, _incast_job(8), _incast_job(16), _incast_job(8))]
    assert len(set(keys)) == 3 and keys[1] == keys[3]


def test_a_workload_without_a_canonical_encoding_is_refused_before_any_run(monkeypatch):
    from repro.experiments import common

    submitted = []
    monkeypatch.setattr(common, "run_jobs", submitted.append)
    LOG.clear()
    with pytest.raises(TypeError, match="no canonical encoding"):
        run_grid([fast_config(), (fast_config(), lambda config, net, create: (0, 0))], (1,))
    assert submitted == [] and len(LOG) == 0


def test_running_a_job_never_mutates_its_workload():
    # The inline path runs in this process: a workload that kept the
    # apps it built would keep the run's network alive past the run.
    job = _incast_job()
    before = dict(vars(job.traffic))
    [result] = run_jobs([job], jobs_n=1, use_cache=False)
    assert result.ok and result.row["answered"] == 8
    assert vars(job.traffic) == before


def test_run_grid_failure_names_the_workload():
    job = _incast_job()
    with pytest.raises(RuntimeError, match=r"point 0 \(tcp\+tlt, IncastGets\(flows=8, "
                                           r"runs=1\)\): every seed failed"):
        run_grid([(job.config, job.traffic)], (1,), util.crashing_metrics)


def test_run_grid_notes_attempts_and_the_document_sums_retries(tmp_path, monkeypatch):
    monkeypatch.setenv("TLT_TEST_FLAKY", str(tmp_path / "first-attempt"))
    LOG.clear()
    with execution(jobs=2):
        run_grid([fast_config()], (1,), util.flaky_once_metrics)
        run_grid([fast_config()], (2,))
    assert [m["attempts"] for m in LOG] == [2, 1]
    doc = summarize("figXX", LOG, "git-abc1234", elapsed_s=1.5, jobs=2)
    assert (doc["runs"], doc["retries"], doc["jobs"], doc["elapsed_s"]) == (2, 1, 2, 1.5)


# -- metrics references & context --------------------------------------------


def test_metrics_reference_round_trip():
    ref = metrics_reference(util.crashing_metrics)
    assert ref == "tests.util:crashing_metrics"
    assert resolve_metrics(ref) is util.crashing_metrics


def test_metrics_reference_rejects_lambdas_and_closures():
    assert metrics_reference(lambda r: {}) is None

    def closure(result):
        return {}

    assert metrics_reference(closure) is None
    assert metrics_reference(None) is None


def test_execution_context_nesting_and_configure():
    outer = get_context()
    with execution(jobs=3) as ctx:
        assert get_context() is ctx
        assert ctx.jobs == 3
        configure(jobs=7, timeout_s=2.0)
        assert ctx.jobs == 7 and ctx.timeout_s == 2.0
        with pytest.raises(TypeError):
            configure(bogus=1)
    assert get_context() is outer


def test_cached_jobs_mix_with_executed_jobs(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    first = run_jobs([Job(0, fast_config(), 1)], jobs_n=1,
                     use_cache=True, cache=cache)
    assert not first[0].cached
    jobs = [Job(0, fast_config(), 1), Job(1, fast_config(), 2)]
    results = run_jobs(jobs, jobs_n=1, use_cache=True, cache=cache)
    assert results[0].cached and not results[1].cached
    assert results[0].row == first[0].row


def test_execution_context_defaults():
    ctx = ExecutionContext()
    assert ctx.jobs >= 1
    assert ctx.use_cache is True
    assert ctx.retries == 1
    assert ctx.timeout_s is None
