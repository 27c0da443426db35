"""Telemetry exporters: streaming JSONL and the stream merge.

One telemetry record is one flat JSON object::

    {"t": <sim ns>, "i": <emit seq>, "run": "<run id>", "seed": <int>,
     "stream": "queue" | "buffer" | "pfc" | "flow" | "link" | ..., ...fields}

``t`` is sim time (never wall-clock) and ``i`` is the per-run emission
sequence number, so any set of per-worker streams can be merged into
one deterministic, bit-reproducible file by sorting on
``(seed, t, run, i)`` — see :func:`merge_streams`.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Tuple

#: Schema version stamped on flight-recorder dumps and checked by
#: ``tools/check_telemetry.py``.
SCHEMA_VERSION = 1


def encode_record(record: Dict) -> str:
    """One canonical JSONL line (compact separators, sorted keys)."""
    return json.dumps(record, separators=(",", ":"), sort_keys=True)


class JsonlWriter:
    """Streaming JSONL sink: one record per line, flushed periodically
    so the file is watchable (``tail -f``) while the run progresses."""

    def __init__(self, path: str, flush_every: int = 1024):
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        self.path = path
        self.flush_every = flush_every
        self.written = 0
        self._handle = open(path, "w", encoding="utf-8")

    def write(self, record: Dict) -> None:
        self._handle.write(encode_record(record))
        self._handle.write("\n")
        self.written += 1
        if self.written % self.flush_every == 0:
            self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def merge_streams(
    out_dir: str, out_name: str = "merged.jsonl"
) -> Tuple[Optional[str], int]:
    """Merge every per-run ``run_*.jsonl`` in ``out_dir`` into one file.

    Worker processes (``repro.experiments.parallel``) each write their
    own stream; the merge is deterministic — records are ordered by
    ``(seed, sim time, run id, emission seq)`` regardless of worker
    scheduling — so a parallel sweep's merged telemetry is bit-identical
    to a serial one's. Returns ``(path, record_count)``, or
    ``(None, 0)`` when there is nothing to merge.
    """
    try:
        names = sorted(os.listdir(out_dir))
    except OSError:
        return None, 0
    records: List[Tuple[int, int, str, int, str]] = []
    for name in names:
        if not (name.startswith("run_") and name.endswith(".jsonl")):
            continue
        with open(os.path.join(out_dir, name), encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                record = json.loads(line)
                records.append((
                    record.get("seed", 0), record.get("t", 0),
                    str(record.get("run", "")), record.get("i", 0), line,
                ))
    if not records:
        return None, 0
    records.sort(key=lambda r: r[:4])
    path = os.path.join(out_dir, out_name)
    with open(path, "w", encoding="utf-8") as handle:
        for entry in records:
            handle.write(entry[4])
            handle.write("\n")
    return path, len(records)
