"""Micro-benchmark configuration.

The simulator micro-benchmarks here are regression tripwires, gated in
CI by ``tools/check_bench_regression.py`` on events/sec. The paper's
figures are regenerated, and their claims checked, by
``tlt-experiment all`` (``repro.experiments.runner``).
"""

import os

import pytest

from repro.sim import backend as backend_mod


@pytest.fixture(autouse=True, scope="session")
def bench_execution():
    """Benchmark-wide execution context.

    The runtime invariant auditor is switched off explicitly: audited
    switches run the hooked data-path variants, and a benchmark taken
    with ``TLT_AUDIT`` leaking in from the environment would silently
    measure the wrong code path. The same goes for every other
    behavior-changing knob — ``TLT_TELEMETRY`` (samplers + JSONL
    streaming), ``TLT_SHARDS`` (worker processes + window barriers) and
    ``TLT_FAULTS`` (fault interceptors on the data path) are scrubbed
    for the session and restored afterwards.

    The hot-path backend is the one deliberate exception: it is part of
    what a benchmark *measures*, so ``TLT_BACKEND`` is resolved ONCE
    here — pinned programmatically via :func:`repro.sim.backend.set_backend`
    (which fails loudly if a compiled build was requested but is
    absent) and then scrubbed from the environment like the rest. Every
    benchmark's JSON entry records the resolved name in
    ``extra_info["backend"]`` so reports and the regression gate can
    never attribute numbers to the wrong backend.
    """
    prev_audit = os.environ.get("TLT_AUDIT")
    os.environ["TLT_AUDIT"] = "0"
    # Likewise telemetry: a leaked TLT_TELEMETRY would attach samplers
    # (and stream JSONL) to every scenario run being timed.
    prev_telemetry = os.environ.pop("TLT_TELEMETRY", None)
    prev_shards = os.environ.pop("TLT_SHARDS", None)
    prev_faults = os.environ.pop("TLT_FAULTS", None)
    prev_backend = os.environ.pop("TLT_BACKEND", None)
    requested = prev_backend or "pure"
    backend_mod.set_backend(requested)  # loud ValueError/RuntimeError
    try:
        yield
    finally:
        backend_mod.set_backend(None)
        if prev_audit is None:
            os.environ.pop("TLT_AUDIT", None)
        else:
            os.environ["TLT_AUDIT"] = prev_audit
        if prev_telemetry is not None:
            os.environ["TLT_TELEMETRY"] = prev_telemetry
        if prev_shards is not None:
            os.environ["TLT_SHARDS"] = prev_shards
        if prev_faults is not None:
            os.environ["TLT_FAULTS"] = prev_faults
        if prev_backend is not None:
            os.environ["TLT_BACKEND"] = prev_backend


@pytest.fixture(autouse=True)
def bench_backend_tag(request):
    """Stamp the resolved backend on every benchmark's ``extra_info``."""
    yield
    benchmark = request.node.funcargs.get("benchmark")
    if benchmark is not None:
        benchmark.extra_info.setdefault("backend", backend_mod.current_backend())


@pytest.fixture
def record_events():
    """Attach an engine-event count to a benchmark so reports carry
    throughput (events/sec), which ``tools/check_bench_regression.py``
    gates on instead of raw wall time."""

    def _record(benchmark, events) -> None:
        if events:
            benchmark.extra_info["events"] = int(events)

    return _record
