"""Run-time observability for the simulator (``repro.telemetry``).

Four pieces, wired end to end through ``ScenarioConfig(telemetry=...)``
/ ``TLT_TELEMETRY`` / ``tlt-experiment --telemetry OUTDIR``:

- a **metrics registry** (:mod:`repro.telemetry.registry`) whose
  disabled path costs zero on the hot loop (bind-at-construction null
  metrics);
- **engine-clocked samplers** (:mod:`repro.telemetry.samplers`) on the
  timer wheel — queue depth by color vs K, shared-buffer occupancy,
  PFC pause state, per-flow cwnd/rate/in-flight/RTO-armed, link
  utilization — sampled on sim time so determinism fingerprints stay
  bit-identical with telemetry on;
- **exporters** (:mod:`repro.telemetry.exporters`,
  :mod:`repro.telemetry.report`): streaming JSONL, CSV, Prometheus text
  exposition, and an ASCII/HTML report with Fig-11-style queue
  timelines;
- a **flight recorder** (:mod:`repro.telemetry.recorder`) dumping a
  JSON snapshot of recent samples + the audit ring tail on
  ``AuditError``, RTO fires and fault-schedule events.
"""

from repro.telemetry.core import Telemetry, TelemetryConfig
from repro.telemetry.exporters import (
    SCHEMA_VERSION,
    JsonlWriter,
    encode_record,
    export_csv,
    merge_streams,
)
from repro.telemetry.recorder import FlightRecorder
from repro.telemetry.registry import (
    NULL_METRIC,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
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
    "NULL_METRIC",
    "SCHEMA_VERSION",
    "STREAM_FIELDS",
    "BufferOccupancySampler",
    "Counter",
    "FlightRecorder",
    "FlowStateSampler",
    "Gauge",
    "Histogram",
    "JsonlWriter",
    "LinkLoadSampler",
    "MetricsRegistry",
    "PfcStateSampler",
    "PathChurnSampler",
    "PolicySampler",
    "QueueDepthSampler",
    "Sampler",
    "Telemetry",
    "TelemetryConfig",
    "encode_record",
    "export_csv",
    "merge_streams",
    "render_html",
    "render_report",
    "sparkline",
]
