"""Telemetry orchestration: config, sampler lifecycle, export, triggers.

:class:`TelemetryConfig` is the JSON-able spec carried on
``ScenarioConfig(telemetry=...)`` (or pointed at by the
``TLT_TELEMETRY`` environment variable, which names an output
directory); :class:`Telemetry` owns one run's samplers, exporters
and flight recorder, and writes the end-of-run ``.prom`` snapshot.

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
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.sim.units import MICROS
from repro.spec import PositiveInt, build, within
from repro.telemetry.exporters import JsonlWriter
from repro.telemetry.recorder import FlightRecorder
from repro.telemetry.report import render_report
from repro.telemetry.samplers import (
    BufferOccupancySampler,
    FlowStateSampler,
    LinkLoadSampler,
    PfcStateSampler,
    PathChurnSampler,
    PolicySampler,
    QueueDepthSampler,
)

#: One Prometheus family: ``(name, type, help, [(labels, value), ...])``.
Family = Tuple[str, str, str, List[Tuple[Dict, object]]]

#: Per-stream in-memory retention for the report.
MEMORY_SAMPLES = 200_000


@dataclass(frozen=True)
class TelemetryConfig:
    """Where a run's telemetry goes and how often it samples."""

    #: Output directory for every artifact of the run.
    out_dir: str = "telemetry"
    #: Sampling cadence (sim time) of every sampler.
    interval_ns: PositiveInt = 20 * MICROS

    @classmethod
    def from_spec(cls, spec) -> "TelemetryConfig":
        """From a dict spec, an out-dir string or ``True`` (all defaults)."""
        if isinstance(spec, TelemetryConfig):
            return spec
        spec = {} if spec is True else {"out_dir": spec} if isinstance(spec, str) else spec
        with within("telemetry"):
            return build(cls, spec, "telemetry")

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


def to_prometheus(families: List[Family]) -> str:
    """Prometheus text exposition of ``families``, in name order."""
    lines = []
    for name, kind, help_text, series in sorted(families, key=lambda f: f[0]):
        lines += [f"# HELP {name} {help_text}", f"# TYPE {name} {kind}"]
        for labels, value in series:
            text = ",".join(f'{label}="{_escape(label_value)}"'
                            for label, label_value in labels.items())
            value = int(value) if isinstance(value, float) and value.is_integer() else value
            lines.append(f"{name}{{{text}}} {value!r}" if text else f"{name} {value!r}")
    return "\n".join(lines) + "\n"


def _escape(value: object) -> str:
    return str(value).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


class Telemetry:
    """One run's telemetry: samplers + exporters + recorder."""

    def __init__(self, net, config=None, scenario=None, run_id: Optional[str] = None):
        self.net = net
        self.engine = net.engine
        self.config = TelemetryConfig.from_spec(config if config is not None else True)
        self.scenario = scenario
        self.run_id = run_id or f"run_s{getattr(net.stats, 'seed', 0)}"
        #: stream name -> list of retained records (bounded).
        self.samples: Dict[str, list] = {}
        self.samplers: list = []
        self.emitted = 0
        self.files: list = []
        self.recorder = FlightRecorder(self.config.out_dir, self.run_id, engine=self.engine)
        self.recorder.ring_provider = lambda: net.stats.audit_ring
        self._jsonl: Optional[JsonlWriter] = None
        self._installed = False
        self._finalized = False

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
        if len(retained) < MEMORY_SAMPLES:
            retained.append(record)
        self.recorder.on_sample(record)
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
        out_dir, interval = self.config.out_dir, self.config.interval_ns
        os.makedirs(out_dir, exist_ok=True)
        self._jsonl = JsonlWriter(os.path.join(out_dir, f"run_{self.run_id}.jsonl"))
        act = active if active is not None else self._auto_active
        self.samplers = [
            cls(self.net, interval, self.emit, active=act)
            for cls in (QueueDepthSampler, BufferOccupancySampler, PfcStateSampler,
                        FlowStateSampler, LinkLoadSampler, PolicySampler,
                        PathChurnSampler)
        ]
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

    def _snapshot(self, manifest: Optional[Dict]) -> List[Family]:
        """The ``.prom`` families, read at the end of the run: what its
        ``manifest`` says the simulator was and cost, the headline
        NetStats totals, and the path counters and live K of each switch."""
        stats = self.net.stats
        scalars = [
            ("tlt_timeouts_total", "counter", "RTO fires", stats.timeouts),
            ("tlt_fast_retransmits_total", "counter", "Fast retransmits",
             stats.fast_retransmits),
            ("tlt_ecn_marks_total", "counter", "ECN marks", stats.ecn_marks),
            ("tlt_pause_frames_total", "counter", "PFC pause frames", stats.pause_frames),
            ("tlt_drops_green_total", "counter", "Green congestion drops", stats.drops_green),
            ("tlt_drops_red_total", "counter", "Red congestion drops", stats.drops_red),
            ("tlt_drops_fault_total", "counter", "Fault-injected drops", stats.drops_fault),
            ("tlt_flows_incomplete", "gauge", "Flows not complete at end of run",
             stats.incomplete_flows()),
            ("tlt_telemetry_samples_total", "counter", "Telemetry records emitted",
             self.emitted),
        ]
        if manifest is not None:
            scalars += [
                ("tlt_run_wall_seconds", "gauge", "Run wall time", manifest["wall_s"]),
                ("tlt_run_cpu_seconds", "gauge", "Run CPU time", manifest["cpu_s"]),
                ("tlt_run_peak_rss_bytes", "gauge", "Process peak RSS",
                 int(manifest["peak_rss_mb"] * 1024 * 1024)),
                ("tlt_run_events_total", "counter", "Engine events processed",
                 manifest["events"]),
            ]
        families = [(name, kind, help_text, [({}, value)])
                    for name, kind, help_text, value in scalars]
        if manifest is not None:
            families.append(("tlt_run_info", "gauge", "What produced this snapshot", [(
                {"backend": manifest["backend"], "shards": manifest["shards"],
                 "audit": str(manifest["audit"]).lower()}, 1)]))
        switches = sorted(self.net.switches, key=lambda switch: switch.name)
        multipath = [s for s in switches if s.fib.kind != "static-hash"]
        live_k = [(s.name, s.policy.describe()["k"]) for s in switches]
        families += [
            ("tlt_path_flowlets_total", "counter", "Flowlets started at this switch",
             [({"switch": s.name}, s.fib.flowlets) for s in multipath]),
            ("tlt_path_reroutes_total", "counter",
             "Flowlet re-hashes that changed the egress port",
             [({"switch": s.name}, s.fib.reroutes) for s in multipath]),
            ("tlt_policy_color_threshold_bytes", "gauge",
             "Live color threshold K of the admission policy",
             [({"switch": name}, k) for name, k in live_k if k is not None]),
        ]
        return [family for family in families if family[3]]

    def _write(self, name: str, text: str) -> None:
        path = os.path.join(self.config.out_dir, name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        self.files.append(path)

    def finalize(self, manifest: Optional[Dict] = None) -> Dict:
        """Stop samplers, write the end-of-run artifacts (the run's
        ``manifest`` among them, when it finished), close streams."""
        if self._finalized:
            return self.summary()
        self._finalized = True
        for sampler in self.samplers:
            sampler.stop()
        if self.net.stats.on_rto_fire is self._on_rto_fire:
            self.net.stats.on_rto_fire = None
        if self._jsonl is not None:
            self._jsonl.close()
            self.files.append(self._jsonl.path)
        if manifest is not None:
            self.files.append(write_manifest(self.config.out_dir, manifest))
        self._write(f"run_{self.run_id}.prom", to_prometheus(self._snapshot(manifest)))
        self._write(f"report_{self.run_id}.txt", render_report(self))
        return self.summary()

    def summary(self) -> Dict:
        """What the run emitted and wrote (complete once finalized)."""
        return {
            "run": self.run_id,
            "emitted": self.emitted,
            "streams": {s: len(rows) for s, rows in sorted(self.samples.items())},
            "files": list(self.files),
            "recorder": self.recorder.summary(),
        }
