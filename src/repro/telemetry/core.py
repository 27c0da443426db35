"""Telemetry orchestration: config, sampler lifecycle, export, triggers.

:class:`TelemetryConfig` is the JSON-able spec carried on
``ScenarioConfig(telemetry=...)`` (or pointed at by the
``TLT_TELEMETRY`` environment variable, which names an output
directory); :class:`Telemetry` owns one run's registry, samplers,
exporters and flight recorder.

Determinism contract: samplers are ordinary engine events, so a run
with telemetry attached processes *more* events than one without — but
samplers only read state, so every simulation observable (counters,
timings, drops, queue dynamics, durations) is bit-identical. Telemetry
is likewise excluded from result-cache keys
(:meth:`repro.experiments.parallel.Job.cache_key`): it is an
observation, not a result — which also means a cache *hit* re-simulates
nothing and therefore emits no telemetry (use ``--no-cache`` to force
fresh streams).
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, fields
from typing import Callable, Dict, Optional

from repro.sim.units import MICROS
from repro.telemetry.exporters import JsonlWriter, export_csv
from repro.telemetry.recorder import FlightRecorder
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.report import render_html, render_report
from repro.telemetry.samplers import (
    BufferOccupancySampler,
    FlowStateSampler,
    LinkLoadSampler,
    PfcStateSampler,
    PathChurnSampler,
    PolicySampler,
    QueueDepthSampler,
)


@dataclass
class TelemetryConfig:
    """What to sample, how often, and which exporters to write."""

    #: Output directory for every artifact of the run.
    out_dir: str = "telemetry"
    #: Base sampling cadence (sim time). Queue/buffer/PFC samplers use
    #: it directly; flow and link samplers default to it too but can be
    #: slowed independently (they touch more state per tick).
    interval_ns: int = 20 * MICROS
    flow_interval_ns: Optional[int] = None
    link_interval_ns: Optional[int] = None

    # Sampler toggles.
    queues: bool = True
    buffers: bool = True
    pfc: bool = True
    flows: bool = True
    links: bool = True
    policies: bool = True
    paths: bool = True

    # Exporter toggles.
    jsonl: bool = True
    csv: bool = False
    prometheus: bool = True
    report: bool = True
    html: bool = False

    #: Per-tick cap on sampled flows (see FlowStateSampler).
    max_flows: int = 64
    #: Flight-recorder retention and dump cap.
    recorder_window: int = 2048
    max_dumps: int = 8
    #: In-memory per-stream retention for CSV/report rendering.
    memory_samples: int = 200_000
    #: Stable identifier for this run's files; scenario runs derive one
    #: from (transport, seed, config hash) when unset.
    run_id: Optional[str] = None

    @classmethod
    def from_spec(cls, spec) -> "TelemetryConfig":
        """Accept a TelemetryConfig, a dict spec, an out-dir string, or
        ``True`` (all defaults)."""
        if isinstance(spec, TelemetryConfig):
            return spec
        if spec is True:
            spec = {}
        if isinstance(spec, str):
            spec = {"out_dir": spec}
        if not isinstance(spec, dict):
            raise ValueError(f"telemetry spec must be dict/str/True, got {type(spec).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = set(spec) - known
        if unknown:
            raise ValueError(f"unknown telemetry option(s): {sorted(unknown)}")
        config = cls(**spec)
        if config.interval_ns <= 0:
            raise ValueError("telemetry interval must be positive")
        return config

    def to_spec(self) -> Dict:
        """Canonical JSON-able form (round-trips through from_spec)."""
        return asdict(self)


def write_manifest(out_dir: str, manifest: Dict) -> str:
    """Write a run manifest, stamped with the code version, as
    ``manifest_<run_id>.json`` beside the run's streams; returns the path."""
    from repro.experiments.cache import code_version
    from repro.experiments.export import write_json

    return write_json({**manifest, "code": code_version()},
                      os.path.join(out_dir, f"manifest_{manifest['run_id']}.json"))


class Telemetry:
    """One run's telemetry: registry + samplers + exporters + recorder."""

    def __init__(self, net, config=None, scenario=None, run_id: Optional[str] = None):
        self.net = net
        self.engine = net.engine
        self.config = TelemetryConfig.from_spec(config if config is not None else True)
        self.scenario = scenario
        self.run_id = (
            self.config.run_id or run_id or f"run_s{getattr(net.stats, 'seed', 0)}"
        )
        self.registry = MetricsRegistry(enabled=True)
        #: stream name -> list of retained records (bounded).
        self.samples: Dict[str, list] = {}
        self.samplers: list = []
        self.emitted = 0
        self.files: list = []
        self.recorder = FlightRecorder(
            self.config.out_dir,
            self.run_id,
            engine=self.engine,
            window=self.config.recorder_window,
            max_dumps=self.config.max_dumps,
        )
        self.recorder.ring_provider = lambda: net.stats.audit_ring
        self._jsonl: Optional[JsonlWriter] = None
        self._installed = False
        self._finalized = False
        self._summary: Optional[Dict] = None

    # -- sampling ----------------------------------------------------------------

    def emit(self, stream: str, row: Dict) -> None:
        """Stamp and fan out one sampled record (memory, recorder, JSONL)."""
        record = {
            "t": self.engine.now,
            "i": self.emitted,
            "run": self.run_id,
            "seed": getattr(self.net.stats, "seed", 0),
            "stream": stream,
        }
        record.update(row)
        self.emitted += 1
        retained = self.samples.get(stream)
        if retained is None:
            retained = self.samples[stream] = []
        if len(retained) < self.config.memory_samples:
            retained.append(record)
        self.recorder.on_sample(record)
        if self._jsonl is not None:
            self._jsonl.write(record)

    def _auto_active(self) -> bool:
        """Default keep-sampling predicate for standalone use: continue
        while the engine holds any event that is not one of ours (an
        idle engine kept alive only by samplers is a finished run)."""
        live = sum(1 for sampler in self.samplers if sampler.event_pending)
        return self.net.engine.pending > live

    def install(self, active: Optional[Callable[[], bool]] = None) -> "Telemetry":
        """Create output dir, open the stream, arm the samplers.

        ``active`` is the keep-sampling predicate; scenario runs pass
        the same "traffic window open or stragglers remain" rule as the
        Fig-11 queue sampler so telemetry never extends a run.
        """
        if self._installed:
            return self
        self._installed = True
        config = self.config
        os.makedirs(config.out_dir, exist_ok=True)
        if config.jsonl:
            self._jsonl = JsonlWriter(
                os.path.join(config.out_dir, f"run_{self.run_id}.jsonl")
            )
        act = active if active is not None else self._auto_active
        common = dict(emit=self.emit, registry=self.registry, active=act)
        if config.queues:
            self.samplers.append(
                QueueDepthSampler(self.net, config.interval_ns, **common))
        if config.buffers:
            self.samplers.append(
                BufferOccupancySampler(self.net, config.interval_ns, **common))
        if config.pfc:
            self.samplers.append(
                PfcStateSampler(self.net, config.interval_ns, **common))
        if config.flows:
            self.samplers.append(FlowStateSampler(
                self.net, config.flow_interval_ns or config.interval_ns,
                max_flows=config.max_flows, **common))
        if config.links:
            self.samplers.append(LinkLoadSampler(
                self.net, config.link_interval_ns or config.interval_ns, **common))
        if config.policies:
            self.samplers.append(
                PolicySampler(self.net, config.interval_ns, **common))
        if config.paths:
            self.samplers.append(
                PathChurnSampler(self.net, config.interval_ns, **common))
        # RTO fires dump the flight recorder (rare: off the hot path).
        self.net.stats.on_rto_fire = self._on_rto_fire
        return self

    # -- trigger plumbing --------------------------------------------------------

    def _on_rto_fire(self, flow_id: int, rto_ns: int) -> None:
        self.recorder.trigger("rto_fire", {"flow": flow_id, "rto_ns": rto_ns})

    def _on_fault(self, event) -> None:
        self.recorder.trigger("fault", {
            "fault_kind": event.kind, "target": event.target,
            "scheduled_ns": event.time_ns,
        })

    def attach_faults(self, controller) -> None:
        """Dump a snapshot whenever the fault controller applies an event."""
        controller.on_apply = self._on_fault

    def on_audit_error(self, error) -> None:
        """Dump a snapshot for a raised :class:`repro.audit.AuditError`."""
        self.recorder.trigger("audit_error", {
            "violations": list(getattr(error, "violations", []) or [str(error)]),
            "error_time_ns": getattr(error, "time_ns", 0),
        })

    # -- teardown ----------------------------------------------------------------

    def _snapshot_counters(self, manifest: Optional[Dict]) -> None:
        """Mirror the run's headline NetStats totals, and what its manifest
        says the simulator was and cost, into the registry for the ``.prom``."""
        stats = self.net.stats
        if manifest is not None:
            gauge = self.registry.gauge
            gauge("tlt_run_wall_seconds", "Run wall time").set(manifest["wall_s"])
            gauge("tlt_run_cpu_seconds", "Run CPU time").set(manifest["cpu_s"])
            gauge("tlt_run_peak_rss_bytes", "Process peak RSS").set(
                int(manifest["peak_rss_mb"] * 1024 * 1024))
            self.registry.counter(
                "tlt_run_events_total", "Engine events processed",
            ).set(manifest["events"])
            gauge("tlt_run_info", "What produced this snapshot",
                  ("backend", "shards", "audit")).labels(
                manifest["backend"], manifest["shards"],
                str(manifest["audit"]).lower()).set(1)
        for name, help_text, value in (
            ("tlt_timeouts_total", "RTO fires", stats.timeouts),
            ("tlt_fast_retransmits_total", "Fast retransmits", stats.fast_retransmits),
            ("tlt_ecn_marks_total", "ECN marks", stats.ecn_marks),
            ("tlt_pause_frames_total", "PFC pause frames", stats.pause_frames),
            ("tlt_drops_green_total", "Green congestion drops", stats.drops_green),
            ("tlt_drops_red_total", "Red congestion drops", stats.drops_red),
            ("tlt_drops_fault_total", "Fault-injected drops", stats.drops_fault),
        ):
            self.registry.counter(name, help_text).set(value)
        self.registry.gauge(
            "tlt_flows_incomplete", "Flows not complete at end of run",
        ).set(stats.incomplete_flows())
        self.registry.counter(
            "tlt_telemetry_samples_total", "Telemetry records emitted",
        ).set(self.emitted)

    def finalize(self, manifest: Optional[Dict] = None) -> Dict:
        """Stop samplers, write the end-of-run artifacts (the run's
        ``manifest`` among them, when it finished), close streams."""
        if self._finalized:
            return self._summary
        self._finalized = True
        for sampler in self.samplers:
            sampler.stop()
        if self.net.stats.on_rto_fire is self._on_rto_fire:
            self.net.stats.on_rto_fire = None
        config = self.config
        if self._jsonl is not None:
            self._jsonl.close()
            self.files.append(self._jsonl.path)
        self._snapshot_counters(manifest)
        if manifest is not None:
            self.files.append(write_manifest(config.out_dir, manifest))
        if config.prometheus:
            path = os.path.join(config.out_dir, f"run_{self.run_id}.prom")
            self.files.append(self.registry.write_prometheus(path))
        if config.csv:
            self.files.extend(export_csv(self.samples, config.out_dir, self.run_id))
        if config.report or config.html:
            text = render_report(self)
            if config.report:
                path = os.path.join(config.out_dir, f"report_{self.run_id}.txt")
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(text)
                self.files.append(path)
            if config.html:
                path = os.path.join(config.out_dir, f"report_{self.run_id}.html")
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(render_html(text, title=f"TLT run {self.run_id}"))
                self.files.append(path)
        self._summary = {
            "run": self.run_id,
            "emitted": self.emitted,
            "streams": {s: len(rows) for s, rows in sorted(self.samples.items())},
            "files": list(self.files),
            "recorder": self.recorder.summary(),
        }
        return self._summary

    def summary(self) -> Dict:
        return self._summary if self._summary is not None else {
            "run": self.run_id,
            "emitted": self.emitted,
            "streams": {s: len(rows) for s, rows in sorted(self.samples.items())},
            "files": list(self.files),
            "recorder": self.recorder.summary(),
        }
