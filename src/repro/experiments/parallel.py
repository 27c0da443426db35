"""Parallel experiment execution: a process-pool job runner.

Fans ``(scenario, seed)`` pairs out across CPU cores while keeping the
output *bit-identical* to a serial run:

- every :class:`Job` is independent (one ``run_scenario`` call in a
  fresh process, seeded by its config), so no cross-run state leaks;
- results are keyed by job index and re-ordered before they are
  returned, so callers always see them in submission order;
- metrics reducers run inside the worker (a :class:`ScenarioResult`
  holds the whole network and is too heavy to ship between processes)
  and are addressed by a ``module:qualname`` reference so they pickle
  under any start method.

Fault tolerance: a worker that crashes, hangs past ``timeout_s`` or
raises is retried (``retries`` times, default once) and then reported
as a failed :class:`JobResult` instead of killing the sweep.

Completed jobs are written to the content-addressed on-disk cache
(:mod:`repro.experiments.cache`), so re-runs — including CI — only
execute what changed.

The module-level :class:`ExecutionContext` carries the defaults
(``--jobs``, ``--no-cache``, ``--timeout`` from the CLI); library code
such as :func:`repro.experiments.common.run_grid` picks them up
without every experiment module having to thread parameters through.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import sys
import time
import traceback
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from importlib import import_module
from multiprocessing import connection as mp_connection
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.experiments.cache import ResultCache, fingerprint
from repro.experiments.manifest import LOG
from repro.experiments.scenarios import (
    ScenarioConfig,
    ScenarioResult,
    check_modes,
    encode_workload,
    run_control,
    run_scenario,
)

ENV_JOBS = "TLT_JOBS"

#: How often the scheduler polls worker pipes (seconds).
_POLL_INTERVAL_S = 0.05


def default_jobs() -> int:
    try:
        return max(1, int(os.environ.get(ENV_JOBS, "1")))
    except ValueError:
        return 1


@dataclass
class ExecutionContext:
    """Process-wide execution defaults for the job runner."""

    jobs: int = field(default_factory=default_jobs)
    use_cache: bool = True
    cache_dir: Optional[str] = None
    timeout_s: Optional[float] = None
    retries: int = 1


_context = ExecutionContext()


def get_context() -> ExecutionContext:
    return _context


def configure(**kwargs) -> ExecutionContext:
    """Update fields of the current execution context (None = keep)."""
    for name, value in kwargs.items():
        if not hasattr(_context, name):
            raise TypeError(f"unknown execution option {name!r}")
        if value is not None:
            setattr(_context, name, value)
    _context.jobs = max(1, int(_context.jobs))
    return _context


@contextmanager
def execution(**kwargs) -> Iterator[ExecutionContext]:
    """Temporarily swap in a fresh execution context (tests, sweeps)."""
    global _context
    previous = _context
    _context = replace(previous)
    try:
        yield configure(**kwargs)
    finally:
        _context = previous


@dataclass(frozen=True)
class Job:
    """One (scenario, seed) unit of work."""

    index: int
    config: ScenarioConfig
    seed: int
    metrics: Optional[str] = None  # "module:qualname" reducer reference
    traffic: Optional[object] = None  # run_scenario's workload; None: the standard mix

    def cache_key(self) -> str:
        # What the key leaves out is how a run is executed or watched,
        # never what it simulates (the rule and the table: docs/API.md,
        # "Run control"). The fault schedule is folded in *resolved*: a
        # spec from the TLT_FAULTS file is invisible to the config, and
        # stale hits would mix chaos runs with clean ones. Telemetry,
        # shards and a checkpoint are left out, bit-identical by
        # contract: a cache hit re-simulates nothing and emits no
        # telemetry (--no-cache forces fresh streams). Which modes
        # combine is checked by run_jobs before it reads the key.
        config = replace(
            self.config, seed=self.seed, faults=run_control(self.config).faults,
            telemetry=None, shards=None, checkpoint=None,
        )
        traffic = None if self.traffic is None else encode_workload(self.traffic)
        return fingerprint(config, self.seed, self.metrics, traffic=traffic)


@dataclass
class JobResult:
    """Outcome of one job, in submission order."""

    index: int
    row: Optional[Dict] = None
    error: Optional[str] = None
    #: The run's manifest; on a cache hit the producing run's, marked ``cached``.
    manifest: Optional[Dict] = None
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.row is not None and self.error is None

    @property
    def cached(self) -> bool:
        return bool(self.manifest and self.manifest.get("cached"))


def resolve_metrics(ref: Optional[str]) -> Callable[[ScenarioResult], Dict]:
    """Turn a ``module:qualname`` reference back into a callable."""
    if ref is None:
        return lambda result: result.summary_row()
    module_name, _, qualname = ref.partition(":")
    if not module_name or not qualname:
        raise ValueError(f"malformed metrics reference {ref!r}")
    obj = import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def metrics_reference(fn: Optional[Callable]) -> Optional[str]:
    """Importable ``module:qualname`` for ``fn``, or None.

    Lambdas, closures and anything that does not round-trip through an
    import cannot run in a worker process, nor be fingerprinted for the
    cache; :func:`repro.experiments.common.run_grid` refuses them.
    """
    if fn is None:
        return None
    module = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", None)
    if not module or not qualname or "<" in qualname:
        return None
    ref = f"{module}:{qualname}"
    try:
        resolved = resolve_metrics(ref)
    except Exception:
        return None
    return ref if resolved is fn else None


# -- execution ---------------------------------------------------------------


def _execute_raw(job: Job) -> Tuple[Dict, Dict]:
    """Run one job in the current process; returns (row, manifest). A fresh
    copy of the workload runs, so the apps it builds die with the run."""
    traffic = None if job.traffic is None else replace(job.traffic)
    result = run_scenario(replace(job.config, seed=job.seed), traffic)
    return resolve_metrics(job.metrics)(result), result.manifest


def _execute_inline(job: Job) -> JobResult:
    try:
        row, manifest = _execute_raw(job)
    except Exception as exc:
        return JobResult(index=job.index, error=f"{type(exc).__name__}: {exc}")
    return JobResult(index=job.index, row=row, manifest=manifest)


def _worker_entry(conn, job: Job) -> None:
    """Worker process body: run the job, ship (status, payload) back."""
    try:
        payload = _execute_raw(job)
        conn.send(("ok", payload))
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc(limit=20)))
        except Exception:
            pass
    finally:
        conn.close()


def _mp_context():
    # fork is markedly cheaper and keeps test-defined metrics importable.
    return mp.get_context("fork" if "fork" in mp.get_all_start_methods() else "spawn")


def _stop_worker(proc) -> None:
    if not proc.is_alive():
        return
    proc.terminate()
    proc.join(timeout=2)
    if proc.is_alive():
        proc.kill()
        proc.join(timeout=2)


def _run_pool(jobs: Sequence[Job], slots: int, timeout_s: Optional[float],
              retries: int) -> List[JobResult]:
    """Schedule jobs over up to ``slots`` worker processes."""
    ctx = _mp_context()
    queue = deque((job, 1) for job in jobs)
    running: Dict[object, Tuple[object, Job, int, float]] = {}  # conn -> (proc, ...)
    done: List[JobResult] = []
    try:
        while queue or running:
            while queue and len(running) < slots:
                job, attempt = queue.popleft()
                parent_conn, child_conn = ctx.Pipe(duplex=False)
                proc = ctx.Process(target=_worker_entry, args=(child_conn, job),
                                   daemon=True)
                proc.start()
                child_conn.close()
                running[parent_conn] = (proc, job, attempt, time.monotonic())
            ready = mp_connection.wait(list(running), timeout=_POLL_INTERVAL_S)
            now = time.monotonic()
            for conn in list(running):
                proc, job, attempt, started = running[conn]
                outcome = None
                if conn in ready:
                    try:
                        outcome = conn.recv()
                    except (EOFError, OSError):
                        proc.join(timeout=5)  # reap so exitcode is readable
                        outcome = ("crash", f"worker exited with code {proc.exitcode} "
                                            "before returning a result")
                elif not proc.is_alive():
                    proc.join(timeout=5)
                    outcome = ("crash", f"worker exited with code {proc.exitcode} "
                                        "before returning a result")
                elif timeout_s is not None and now - started > timeout_s:
                    _stop_worker(proc)
                    outcome = ("crash", f"worker timed out after {timeout_s:g}s "
                                        "and was killed")
                if outcome is None:
                    continue
                del running[conn]
                conn.close()
                _stop_worker(proc)
                proc.join(timeout=5)
                status, payload = outcome
                if status == "ok":
                    row, manifest = payload
                    done.append(JobResult(index=job.index, row=row, manifest=manifest,
                                          attempts=attempt))
                elif attempt <= retries:
                    queue.append((job, attempt + 1))
                else:
                    done.append(JobResult(index=job.index,
                                          error=str(payload).strip(),
                                          attempts=attempt))
    finally:
        for conn, (proc, _job, _attempt, _started) in running.items():
            _stop_worker(proc)
            conn.close()
    return done


def run_jobs(jobs: Sequence[Job], *, jobs_n: Optional[int] = None,
             use_cache: Optional[bool] = None, cache: Optional[ResultCache] = None,
             timeout_s: Optional[float] = None,
             retries: Optional[int] = None) -> List[JobResult]:
    """Run jobs (cache → pool/inline), returning results in submission order.

    Deterministic merging: the result list lines up 1:1 with ``jobs``
    regardless of completion order, worker count or cache hits, so a
    parallel sweep is bit-identical to a serial one.
    """
    ctx = get_context()
    slots = ctx.jobs if jobs_n is None else max(1, int(jobs_n))
    use_cache = ctx.use_cache if use_cache is None else use_cache
    timeout_s = ctx.timeout_s if timeout_s is None else timeout_s
    retries = ctx.retries if retries is None else max(0, int(retries))
    if cache is None and use_cache:
        cache = ResultCache(ctx.cache_dir)

    results: Dict[int, JobResult] = {}
    keys: Dict[int, str] = {}
    pending: List[Job] = []
    seen = set()
    for job in jobs:
        if job.index in seen:
            raise ValueError(f"duplicate job index {job.index}")
        seen.add(job.index)
        # Every job's specs and modes before any cache lookup: a bad spec is
        # never a retried run, nor a refused mode served by a cached plain run.
        check_modes(job.config, run_control(job.config), job.traffic)
    for job in jobs:
        if use_cache:
            key = keys[job.index] = job.cache_key()
            artifact = cache.get(key)
            if artifact is not None:
                # Still says which backend and code produced the row.
                manifest = {**artifact["manifest"], "cached": True}
                results[job.index] = JobResult(
                    index=job.index, row=artifact["row"], manifest=manifest)
                LOG.append(manifest)
                continue
        pending.append(job)

    if pending:
        if slots <= 1 and timeout_s is None:
            # Inline serial path: zero process overhead; finish_run
            # logged each manifest in this process already.
            executed = [_execute_inline(job) for job in pending]
        else:
            # The pool hands results back in completion order; log them
            # in submission order, as the inline path does, so the log is
            # the same at any worker count.
            position = {job.index: n for n, job in enumerate(pending)}
            executed = sorted(_run_pool(pending, slots, timeout_s, retries),
                              key=lambda res: position[res.index])
            LOG.extend(res.manifest for res in executed if res.ok)
        seeds = {job.index: job.seed for job in pending}
        for res in executed:
            results[res.index] = res
            if res.ok and use_cache:
                try:
                    cache.put(keys[res.index], res.row, seed=seeds[res.index],
                              manifest=res.manifest)
                except OSError as exc:  # a read-only cache dir must not kill a sweep
                    print(f"warning: could not write result cache: {exc}",
                          file=sys.stderr)
    missing = [job.index for job in jobs if job.index not in results]
    if missing:
        raise RuntimeError(f"job runner lost results for indices {missing}")
    return [results[job.index] for job in jobs]
