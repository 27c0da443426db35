#!/usr/bin/env python3
"""Schema-validate telemetry output (JSONL streams, flight dumps, run
manifests and the ``.prom`` snapshot's ``tlt_run_*`` families).

Usage::

    python tools/check_telemetry.py OUTDIR [OUTDIR ...] [--expect-flight]
    python tools/check_telemetry.py run_foo.jsonl

For a directory, every ``*.jsonl`` stream in it is validated line by
line against the record schema (base fields + per-stream required
fields + value invariants like ``red <= occ``), ``merged.jsonl`` is
additionally checked for deterministic (seed, t, run, i) ordering,
every ``flight_*.json`` dump is checked for the snapshot schema, every
``manifest_*.json`` for the run-manifest schema (the one ``SCHEMA``
constant, required keys, ``events > 0``, ``events_per_s == events /
wall_s`` within rounding, ``0 <= collect_s <= wall_s``), every
``run_*.prom`` for the ``tlt_run_*`` families that mirror it and for a
``tlt_telemetry_samples_total`` equal to the record count of the
run's ``run_*.jsonl``, and every ``<id>.manifest.json`` (the
experiment document ``tlt-experiment --csv`` writes) for its totals:
``runs``/``cached_runs``/``retries`` against the manifests it lists,
``jobs >= 1``, ``elapsed_s >= 0``, and ``0 <= collect_s <= wall_s``
for the total and for every run it lists (0 where a cached run lacks it).
``--expect-flight`` fails unless at least one flight dump is present —
used by CI's faulted telemetry smoke run. Exit status 0 = clean.

The per-stream field lists are the ones the samplers declare
(:data:`repro.telemetry.samplers.STREAM_FIELDS`): one source of truth.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import Dict, List, Tuple

try:
    from repro.experiments.manifest import COST_FIELDS, SCHEMA
    from repro.telemetry.samplers import STREAM_FIELDS
    from repro.telemetry.exporters import SCHEMA_VERSION
except ImportError:  # pragma: no cover - tooling convenience
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
    from repro.experiments.manifest import COST_FIELDS, SCHEMA
    from repro.telemetry.samplers import STREAM_FIELDS
    from repro.telemetry.exporters import SCHEMA_VERSION

BASE_FIELDS = ("t", "i", "run", "seed", "stream")
#: What every written run manifest carries (identity fields included:
#: telemetry is attached by harnesses that have a ScenarioConfig).
MANIFEST_FIELDS = COST_FIELDS + (
    "run_id", "transport", "tlt", "seed", "scale", "topology", "backend",
    "shards", "audit", "faults", "telemetry", "checkpoint", "python", "code",
    "sim_ns", "flows", "incomplete")
#: What ``manifest.summarize`` writes around the per-run list.
DOCUMENT_FIELDS = COST_FIELDS + (
    "experiment", "runs", "cached_runs", "backend", "code", "elapsed_s", "jobs",
    "retries", "manifests")
RUN_FAMILIES = ("tlt_run_wall_seconds", "tlt_run_cpu_seconds",
                "tlt_run_events_total", "tlt_run_peak_rss_bytes", "tlt_run_info")


def _check_record(record: Dict, where: str, errors: List[str]) -> None:
    for field in BASE_FIELDS:
        if field not in record:
            errors.append(f"{where}: missing base field {field!r}")
            return
    if not isinstance(record["t"], int) or record["t"] < 0:
        errors.append(f"{where}: t must be a non-negative int (sim ns)")
    if not isinstance(record["i"], int) or record["i"] < 0:
        errors.append(f"{where}: i must be a non-negative int")
    stream = record["stream"]
    fields = STREAM_FIELDS.get(stream)
    if fields is None:
        errors.append(f"{where}: unknown stream {stream!r}")
        return
    missing = [f for f in fields if f not in record]
    if missing:
        errors.append(f"{where}: stream {stream!r} missing fields {missing}")
        return
    if stream == "queue":
        if record["occ"] <= 0 or record["red"] < 0 or record["red"] > record["occ"]:
            errors.append(f"{where}: queue row needs 0 <= red <= occ, occ > 0")
        if record["green"] != record["occ"] - record["red"]:
            errors.append(f"{where}: queue green != occ - red")
    elif stream == "buffer":
        if not (0 < record["used"] <= record["capacity"]):
            errors.append(f"{where}: buffer row needs 0 < used <= capacity")
        if record["peak"] > record["capacity"]:
            errors.append(f"{where}: buffer peak exceeds capacity")
    elif stream == "pfc":
        if record["paused"] not in (0, 1) or record["asserted"] not in (0, 1):
            errors.append(f"{where}: pfc paused/asserted must be 0/1")
        if not (record["paused"] or record["asserted"]):
            errors.append(f"{where}: pfc row for a quiet port")
    elif stream == "flow":
        if record["inflight"] < 0 or record["rto_armed"] not in (0, 1):
            errors.append(f"{where}: flow row needs inflight >= 0, rto_armed 0/1")
    elif stream == "link":
        if not (0 <= record["util"] <= 1):
            errors.append(f"{where}: link util out of [0, 1]")


def check_jsonl(path: str, merged: bool = False) -> Tuple[int, List[str]]:
    """Validate one JSONL stream; returns (record count, errors)."""
    errors: List[str] = []
    count = 0
    last_t = -1
    last_i = -1
    last_key: Tuple = ()
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            where = f"{os.path.basename(path)}:{lineno}"
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                errors.append(f"{where}: invalid JSON ({exc})")
                continue
            if not isinstance(record, dict):
                errors.append(f"{where}: record is not an object")
                continue
            count += 1
            _check_record(record, where, errors)
            if len(errors) > 20:
                errors.append("(stopping after 20 errors)")
                return count, errors
            if merged:
                key = (record.get("seed", 0), record.get("t", 0),
                       str(record.get("run", "")), record.get("i", 0))
                if key < last_key:
                    errors.append(f"{where}: merged stream out of "
                                  f"(seed, t, run, i) order")
                last_key = key
            else:
                if record.get("t", 0) < last_t:
                    errors.append(f"{where}: sim time went backwards")
                if record.get("i", 0) <= last_i:
                    errors.append(f"{where}: emission seq not increasing")
                last_t = record.get("t", 0)
                last_i = record.get("i", 0)
    return count, errors


def check_flight(path: str) -> List[str]:
    """Validate one flight-recorder dump."""
    errors: List[str] = []
    name = os.path.basename(path)
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{name}: unreadable ({exc})"]
    if payload.get("schema") != SCHEMA_VERSION:
        errors.append(f"{name}: schema != {SCHEMA_VERSION}")
    trigger = payload.get("trigger")
    if not isinstance(trigger, dict) or "kind" not in trigger or "time_ns" not in trigger:
        errors.append(f"{name}: trigger must carry kind + time_ns")
    if not isinstance(payload.get("samples"), list):
        errors.append(f"{name}: samples must be a list")
    else:
        for i, record in enumerate(payload["samples"][:64]):
            _check_record(record, f"{name}:samples[{i}]", errors)
    if not isinstance(payload.get("audit_trace"), list):
        errors.append(f"{name}: audit_trace must be a list")
    if "run" not in payload:
        errors.append(f"{name}: missing run id")
    return errors


def _load_manifest(path: str, fields: Tuple[str, ...]) -> Tuple[Dict, List[str]]:
    """A manifest document with the schema constant and ``fields``, or
    ({}, why not)."""
    name = os.path.basename(path)
    try:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        return {}, [f"{name}: unreadable ({exc})"]
    if document.get("schema") != SCHEMA:
        return {}, [f"{name}: schema != {SCHEMA}"]
    missing = [field for field in fields if field not in document]
    if missing:
        return {}, [f"{name}: missing fields {missing}"]
    return document, []


def check_manifest(path: str) -> List[str]:
    """Validate one ``manifest_<run_id>.json``."""
    name = os.path.basename(path)
    manifest, errors = _load_manifest(path, MANIFEST_FIELDS)
    if errors:
        return errors
    if name != f"manifest_{manifest['run_id']}.json":
        errors.append(f"{name}: run_id {manifest['run_id']!r} names another file")
    if not manifest["events"] > 0 or not manifest["wall_s"] > 0:
        errors.append(f"{name}: events and wall_s must be positive")
    elif abs(manifest["events_per_s"] - manifest["events"] / manifest["wall_s"]) \
            > 0.5 + 1e-3 * manifest["events_per_s"]:
        errors.append(f"{name}: events_per_s != events / wall_s")
    if not _collect_in_wall(manifest):
        errors.append(f"{name}: collect_s must be in [0, wall_s]")
    return errors


def _collect_in_wall(manifest: Dict) -> bool:
    """The pre-run collection is part of the run's wall clock. A listed
    cache hit whose manifest predates ``collect_s`` counts 0, as
    ``manifest.summarize`` counts it; a manifest file must carry it."""
    return 0 <= manifest.get("collect_s", 0) <= manifest["wall_s"]


def check_document(path: str) -> Tuple[int, List[str]]:
    """Validate one experiment document, ``<id>.manifest.json``; returns
    (run manifests listed, errors)."""
    name = os.path.basename(path)
    doc, errors = _load_manifest(path, DOCUMENT_FIELDS)
    if errors:
        return 0, errors
    runs = doc["manifests"]
    if doc["runs"] != len(runs):
        errors.append(f"{name}: runs != len(manifests)")
    if doc["cached_runs"] != sum(1 for run in runs if run.get("cached")):
        errors.append(f"{name}: cached_runs != the manifests marked cached")
    if doc["retries"] != sum(run.get("attempts", 1) - 1 for run in runs):
        errors.append(f"{name}: retries != the manifests' attempts beyond the first")
    if not doc["jobs"] >= 1 or not doc["elapsed_s"] >= 0:
        errors.append(f"{name}: jobs must be >= 1 and elapsed_s >= 0")
    if not all(_collect_in_wall(run) for run in [doc, *runs]):
        errors.append(f"{name}: collect_s must be in [0, wall_s], per run and in total")
    return len(runs), errors


def check_prom(path: str) -> List[str]:
    """The ``.prom`` snapshot must say what produced it and count the
    records of the stream beside it."""
    name = os.path.basename(path)
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    errors = [f"{name}: no {family} family"
              for family in RUN_FAMILIES if f"\n{family}" not in text]
    samples = re.search(r"^tlt_telemetry_samples_total (\d+)$", text, re.MULTILINE)
    stream = path[:-len(".prom")] + ".jsonl"
    try:
        with open(stream, encoding="utf-8") as handle:
            records = sum(1 for line in handle if line.strip())
    except OSError:
        records = None
    if samples is None or int(samples.group(1)) != records:
        errors.append(f"{name}: tlt_telemetry_samples_total "
                      f"{samples and samples.group(1)} != {records} records in "
                      f"{os.path.basename(stream)}")
    return errors


def check_dir(out_dir: str) -> Tuple[Dict[str, int], int, List[str]]:
    """Validate a telemetry output directory.

    Returns (records per jsonl file and runs per experiment document,
    flight-dump count, errors).
    """
    errors: List[str] = []
    counts: Dict[str, int] = {}
    flights = 0
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        if name.endswith(".jsonl"):
            count, errs = check_jsonl(path, merged=(name == "merged.jsonl"))
            counts[name] = count
            errors.extend(errs)
        elif name.startswith("flight_") and name.endswith(".json"):
            flights += 1
            errors.extend(check_flight(path))
        elif name.startswith("manifest_") and name.endswith(".json"):
            errors.extend(check_manifest(path))
        elif name.endswith(".manifest.json"):
            counts[name], errs = check_document(path)
            errors.extend(errs)
        elif name.startswith("run_") and name.endswith(".prom"):
            errors.extend(check_prom(path))
    return counts, flights, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+",
                        help="telemetry output directories or .jsonl files")
    parser.add_argument("--expect-flight", action="store_true",
                        help="fail unless at least one flight-recorder dump "
                             "is present (faulted-run smoke)")
    args = parser.parse_args(argv)

    total = 0
    flights = 0
    errors: List[str] = []
    for path in args.paths:
        if os.path.isdir(path):
            counts, nflights, errs = check_dir(path)
            total += sum(counts.values())
            flights += nflights
            errors.extend(errs)
            for name, count in counts.items():
                print(f"{path}/{name}: {count} records")
        else:
            count, errs = check_jsonl(
                path, merged=os.path.basename(path) == "merged.jsonl")
            total += count
            errors.extend(errs)
            print(f"{path}: {count} records")
    if flights:
        print(f"{flights} flight dump(s) validated")
    if args.expect_flight and not flights:
        errors.append("expected at least one flight-recorder dump, found none")
    if total == 0:
        errors.append("no telemetry records found")
    if errors:
        for error in errors:
            print(f"ERROR: {error}", file=sys.stderr)
        return 1
    print(f"OK: {total} records schema-valid")
    return 0


if __name__ == "__main__":
    sys.exit(main())
