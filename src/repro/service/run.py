"""Run (and resume) a service scenario end-to-end.

:func:`run_service` is the service-mode counterpart of
:func:`repro.experiments.scenarios.run_scenario` (which dispatches here
when ``ScenarioConfig.service`` is set): build the fabric, attach the
emulator, drive the engine until every request completes, and return a
:class:`ScenarioResult` whose ``service`` field carries the emulator
for SLO reduction.

The run is assembled from the harness functions of
:mod:`repro.experiments.scenarios` (auditor, faults, telemetry,
``finish_run``), in the same order; the service run's own are the
emulator in place of the traffic mix, its latency sampler, the
checkpoint and the SLO artifacts.

Checkpointing: with a checkpoint in the run control it receives
(``ScenarioConfig.checkpoint`` or ``TLT_CHECKPOINT``), the run pauses
at a quiescent sim-time boundary — ``at_ns``, defaulting to the
midpoint of the arrival span — pickles the whole simulation
(:mod:`repro.sim.checkpoint`) and continues; :func:`resume_service`
picks the file up (``checkpoint_<run_id>.pkl`` in the directory, the
run's manifest ``run_id``) and runs to completion. The resumed run's
:func:`service_fingerprint` is **bit-for-bit equal** to the
uninterrupted run's — the gate ``tests/test_checkpoint.py`` and
``tests/test_run_modes.py`` enforce.
"""

from __future__ import annotations

import os
from functools import partial
from typing import Callable, Dict, Optional

from repro.experiments.parallel import Job
from repro.experiments.scenarios import (
    RunControl,
    ScenarioResult,
    attach_auditor,
    attach_telemetry,
    build_network,
    collect,
    endpoint_settings,
    finish_run,
    install_faults,
    scenario_run_id,
)
from repro.service.emulator import ServiceEmulator
from repro.service.slo import render_slo_report, slo_report
from repro.service.spec import ServiceSpec
from repro.sim import checkpoint as ckpt
from repro.sim.engine import freeze_program
from repro.sim.units import MILLIS

#: Engine-drive window between completion checks.
_WINDOW_NS = 10 * MILLIS


def _run_out(config, control, net, emulator, auditor, faults, telemetry,
             hard_cap_ns: int, checkpoint_at_ns: Optional[int] = None,
             save: Optional[Callable[[], None]] = None) -> ScenarioResult:
    """Run the engine until the emulator finishes (or the cap trips),
    calling ``save()`` once at ``checkpoint_at_ns`` when given; finish
    the observers; reduce. The second half of a fresh run and all of a
    resumed one."""
    engine = net.engine
    collect(net)
    try:
        if save is not None and engine.now < checkpoint_at_ns and not emulator.finished:
            engine.run(until=min(checkpoint_at_ns, hard_cap_ns))
            save()
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
    except BaseException as error:
        finish_run(net, control, auditor, telemetry, error)
        raise
    manifest = finish_run(net, control, auditor, telemetry, config=config)
    result = ScenarioResult(config, net, engine.now, [], auditor, faults, telemetry,
                            service=emulator, manifest=manifest)
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


def run_service(config, control) -> ScenarioResult:
    """Build, run and measure one service scenario under the resolved
    run ``control`` (:func:`repro.experiments.scenarios.run_scenario`
    dispatches here)."""
    spec = ServiceSpec.from_spec(config.service)
    net = build_network(config)
    auditor = attach_auditor(net, control)
    faults = install_faults(net, control)

    emulator = ServiceEmulator(net, spec, *endpoint_settings(config), seed=config.seed)
    emulator.start()

    telemetry = attach_telemetry(config, net, control, emulator.active, faults)
    if telemetry is not None:
        from repro.telemetry.samplers import ServiceLatencySampler

        telemetry.samplers.append(ServiceLatencySampler(
            emulator, telemetry.config.interval_ns, emit=telemetry.emit,
            active=emulator.active))

    span = int(spec.requests / spec.rate_rps * 1e9)  # expected arrival span
    hard_cap = 3 * span + 10 * config.drain_ns
    checkpoint_at = save = None
    if control.checkpoint is not None:
        checkpoint_at = control.checkpoint["at_ns"] or span // 2
        path = ckpt.run_path(control.checkpoint["dir"], scenario_run_id(config))
        # The run's identity: the cache key, run control stripped.
        save = partial(ckpt.save, path, net,
                       extra={"emulator": emulator, "config": config, "auditor": auditor,
                              "hard_cap_ns": hard_cap},
                       key=Job(0, config, config.seed).cache_key())

    return _run_out(config, control, net, emulator, auditor, faults, telemetry,
                    hard_cap, checkpoint_at, save)


def resume_service(path: str, expect_key: Optional[str] = None) -> ScenarioResult:
    """Load a service checkpoint and run it to completion.

    The returned result's :func:`service_fingerprint` equals the
    uninterrupted run's bit-for-bit (the determinism gate).
    """
    freeze_program()  # before the load: the frame holds no run state yet
    payload = ckpt.load(path, expect_key=expect_key)
    extra = payload["state"]["extra"]
    # The auditor was restored with the network, still installed; the
    # rest of run control cannot be checkpointed (scenarios.MODE_CONFLICTS).
    auditor = extra.get("auditor")
    return _run_out(extra["config"], RunControl(audit=auditor is not None),
                    payload["state"]["net"], extra["emulator"], auditor,
                    faults=None, telemetry=None, hard_cap_ns=extra["hard_cap_ns"])


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
