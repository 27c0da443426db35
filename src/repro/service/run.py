"""Run (and resume) a service scenario end-to-end.

:func:`run_service` is the service-mode counterpart of
:func:`repro.experiments.scenarios.run_scenario` (which dispatches here
when ``ScenarioConfig.service`` is set): build the fabric, attach the
emulator, drive the engine until every request completes, and return a
:class:`ScenarioResult` whose ``service`` field carries the emulator
for SLO reduction.

Checkpointing: with ``ScenarioConfig.checkpoint`` resolved (or
``TLT_CHECKPOINT`` set), the run pauses at a quiescent sim-time
boundary — ``at_ns``, defaulting to the midpoint of the arrival span —
pickles the whole simulation (:mod:`repro.sim.checkpoint`) and
continues; :func:`resume_service` picks the file up and runs to
completion. The resumed run's :func:`service_fingerprint` is
**bit-for-bit equal** to the uninterrupted run's — the gate
``tools/check_service_checkpoint.py`` and ``tests/test_checkpoint.py``
enforce. Telemetry (open file handles) and fault schedules
(interceptor closures) cannot pickle and are refused up front when a
checkpoint is requested.
"""

from __future__ import annotations

import gc
import os
import time
from typing import Dict, Optional

from repro.audit import AuditConfig, AuditError, Auditor
from repro.experiments.perf import TALLY
from repro.service.emulator import ServiceEmulator
from repro.service.slo import render_slo_report, slo_report
from repro.service.spec import ServiceSpec
from repro.sim import checkpoint as ckpt
from repro.sim.units import MILLIS

#: Engine-drive window between completion checks.
_WINDOW_NS = 10 * MILLIS


def _scenario_key(config) -> str:
    """The run's identity fingerprint (checkpoint/telemetry/shards
    stripped — the cache-key exclusion rule, see docs/API.md)."""
    from repro.experiments.parallel import Job

    return Job(0, config, config.seed).cache_key()


def _expected_span_ns(spec: ServiceSpec) -> int:
    return int(spec.requests / spec.rate_rps * 1e9)


def _drive(net, emulator, hard_cap_ns: int,
           checkpoint_at_ns: Optional[int] = None,
           checkpoint_path: Optional[str] = None,
           checkpoint_key: Optional[str] = None,
           extra_state: Optional[Dict] = None) -> None:
    """Run the engine until the emulator finishes (or the cap trips),
    optionally saving one checkpoint at ``checkpoint_at_ns``."""
    engine = net.engine
    # Frees the previous run's cyclic garbage before this one grows
    # (see run_scenario); the engine runs with the collector off.
    gc.collect()
    if (checkpoint_path is not None and checkpoint_at_ns is not None
            and engine.now < checkpoint_at_ns and not emulator.finished):
        engine.run(until=min(checkpoint_at_ns, hard_cap_ns))
        ckpt.save(checkpoint_path, net, extra=extra_state,
                  key=checkpoint_key)
    while (not emulator.finished and engine.pending
           and engine.now < hard_cap_ns):
        # Window boundaries are absolute multiples of _WINDOW_NS
        # (not now + window): a restored run resumes mid-window at
        # the checkpoint time, and relative windows would make it
        # sample the finished-predicate at different boundaries
        # than the uninterrupted run — stopping at a different sim
        # time and breaking fingerprint equality.
        boundary = (engine.now // _WINDOW_NS + 1) * _WINDOW_NS
        engine.run(until=min(boundary, hard_cap_ns))


def _finish(config, net, emulator, auditor, telemetry) -> "ScenarioResult":
    from repro.experiments.scenarios import ScenarioResult

    try:
        if auditor is not None:
            auditor.final_check()
    except AuditError as error:
        if telemetry is not None:
            telemetry.on_audit_error(error)
        raise
    finally:
        if telemetry is not None:
            telemetry.finalize()
    result = ScenarioResult(
        config, net, net.engine.now, [], auditor, None, telemetry,
        service=emulator,
    )
    if telemetry is not None:
        _write_slo_artifacts(telemetry, result)
    return result


def _write_slo_artifacts(telemetry, result) -> None:
    """SLO report through the existing report path: JSON + ASCII +
    HTML next to the run's telemetry streams."""
    import json

    from repro.telemetry.report import render_html

    report = slo_report(result.service, result.net.stats, result.duration_ns)
    out_dir = telemetry.config.out_dir
    base = os.path.join(out_dir, f"slo_{telemetry.run_id}")
    with open(f"{base}.json", "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    text = render_slo_report(report)
    with open(f"{base}.txt", "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
    with open(f"{base}.html", "w", encoding="utf-8") as handle:
        handle.write(render_html(text, title="TLT service SLO report"))


def run_service(config) -> "ScenarioResult":
    """Build, run and measure one service scenario."""
    from repro.experiments.scenarios import (
        build_network,
        make_transport_config,
    )
    from repro.faults.schedule import FaultSchedule

    spec = ServiceSpec.from_spec(config.service)
    checkpoint_spec = config.resolved_checkpoint()
    fault_spec = config.resolved_faults()
    telemetry_spec = config.resolved_telemetry()
    if checkpoint_spec is not None and telemetry_spec is not None:
        raise ckpt.CheckpointError(
            "checkpointing a telemetry-attached run is unsupported: the "
            "JSONL stream holds open file handles that cannot pickle")
    if checkpoint_spec is not None and fault_spec is not None:
        raise ckpt.CheckpointError(
            "checkpointing a faulted run is unsupported: fault "
            "interceptors are closures that cannot pickle")

    wall_started = time.perf_counter()
    net = build_network(config)
    auditor = None
    if config.audit_enabled:
        auditor = Auditor(net, AuditConfig.from_env())
        auditor.install()
    fault_controller = None
    if fault_spec is not None:
        fault_controller = FaultSchedule.from_spec(fault_spec).install(net)

    tconfig = make_transport_config(config)
    tlt_cfg = config.tlt_config if config.tlt else None
    emulator = ServiceEmulator(net, spec, config.transport, tconfig, tlt_cfg,
                               seed=config.seed)
    emulator.start()

    telemetry = None
    if telemetry_spec is not None:
        from repro.experiments.scenarios import _telemetry_run_id
        from repro.telemetry import Telemetry, TelemetryConfig
        from repro.telemetry.samplers import ServiceLatencySampler

        telemetry_config = TelemetryConfig.from_spec(telemetry_spec)
        telemetry = Telemetry(
            net, telemetry_config, scenario=config,
            run_id=telemetry_config.run_id or _telemetry_run_id(config))
        telemetry.install(active=emulator.active)
        telemetry.samplers.append(ServiceLatencySampler(
            emulator, telemetry_config.interval_ns, emit=telemetry.emit,
            active=emulator.active))
        if fault_controller is not None:
            telemetry.attach_faults(fault_controller)

    span = _expected_span_ns(spec)
    hard_cap = config.hard_cap_ns or (3 * span + 10 * config.drain_ns)
    checkpoint_path = checkpoint_key = None
    checkpoint_at = None
    if checkpoint_spec is not None:
        checkpoint_path = ckpt.default_path(checkpoint_spec["dir"])
        checkpoint_key = _scenario_key(config)
        checkpoint_at = checkpoint_spec.get("at_ns") or span // 2
    started_events = net.engine.events_processed
    try:
        _drive(net, emulator, hard_cap,
               checkpoint_at_ns=checkpoint_at,
               checkpoint_path=checkpoint_path,
               checkpoint_key=checkpoint_key,
               extra_state={"emulator": emulator, "config": config,
                            "auditor": auditor,
                            "hard_cap_ns": hard_cap})
    except AuditError as error:
        if telemetry is not None:
            telemetry.on_audit_error(error)
            telemetry.finalize()
        raise
    TALLY.add(net.engine.events_processed - started_events,
              time.perf_counter() - wall_started)
    return _finish(config, net, emulator, auditor, telemetry)


def resume_service(path: str, expect_key: Optional[str] = None) -> "ScenarioResult":
    """Load a service checkpoint and run it to completion.

    The returned result's :func:`service_fingerprint` equals the
    uninterrupted run's bit-for-bit (the determinism gate).
    """
    payload = ckpt.load(path, expect_key=expect_key)
    net = payload["state"]["net"]
    extra = payload["state"]["extra"]
    emulator = extra["emulator"]
    config = extra["config"]
    auditor = extra.get("auditor")
    hard_cap = extra["hard_cap_ns"]
    wall_started = time.perf_counter()
    started_events = net.engine.events_processed
    _drive(net, emulator, hard_cap)
    TALLY.add(net.engine.events_processed - started_events,
              time.perf_counter() - wall_started)
    return _finish(config, net, emulator, auditor, None)


def service_fingerprint(result) -> Dict:
    """Bit-exact digest of a finished service run, compared with ``==``
    by the checkpoint/restore determinism gate. Covers the engine
    (event count, final clock), the transport layer (timeouts, drops)
    and the emulator (request counts + full sketch states)."""
    stats = result.net.stats
    return {
        "events": result.net.engine.events_processed,
        "now": result.net.engine.now,
        "timeouts": stats.timeouts,
        "fast_retransmits": stats.fast_retransmits,
        "drops": stats.drops_green + stats.drops_red,
        "ecn_marks": stats.ecn_marks,
        "flows": stats.flow_count(),
        "emulator": result.service.fingerprint(),
    }
