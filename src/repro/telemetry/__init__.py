"""Run-time observability for the simulator (``repro.telemetry``).

Three pieces, wired end to end through ``ScenarioConfig(telemetry=...)``
/ ``TLT_TELEMETRY`` / ``tlt-experiment --telemetry OUTDIR``:

- **engine-clocked samplers** (:mod:`repro.telemetry.samplers`) on the
  timer wheel — queue depth by color vs K, shared-buffer occupancy,
  PFC pause state, per-flow cwnd/rate/in-flight/RTO-armed, link
  utilization — sampled on sim time so determinism fingerprints stay
  bit-identical with telemetry on;
- **exporters** (:mod:`repro.telemetry.exporters`,
  :mod:`repro.telemetry.report`, :func:`repro.telemetry.core.to_prometheus`):
  streaming JSONL, an ASCII report with Fig-11-style queue timelines,
  and a Prometheus snapshot of the run's end state;
- a **flight recorder** (:mod:`repro.telemetry.recorder`) dumping a
  JSON snapshot of recent samples + the audit ring tail on
  ``AuditError``, RTO fires and fault-schedule events.
"""

from repro.telemetry.core import Telemetry, TelemetryConfig, to_prometheus
from repro.telemetry.exporters import (
    SCHEMA_VERSION,
    JsonlWriter,
    encode_record,
    merge_streams,
)
from repro.telemetry.recorder import FlightRecorder
from repro.telemetry.report import render_html, render_report, sparkline
from repro.telemetry.samplers import (
    STREAM_FIELDS,
    BufferOccupancySampler,
    FlowStateSampler,
    LinkLoadSampler,
    PfcStateSampler,
    PathChurnSampler,
    PolicySampler,
    QueueDepthSampler,
    Sampler,
)

__all__ = [
    "SCHEMA_VERSION",
    "STREAM_FIELDS",
    "BufferOccupancySampler",
    "FlightRecorder",
    "FlowStateSampler",
    "JsonlWriter",
    "LinkLoadSampler",
    "PfcStateSampler",
    "PathChurnSampler",
    "PolicySampler",
    "QueueDepthSampler",
    "Sampler",
    "Telemetry",
    "TelemetryConfig",
    "encode_record",
    "merge_streams",
    "render_html",
    "render_report",
    "sparkline",
    "to_prometheus",
]
