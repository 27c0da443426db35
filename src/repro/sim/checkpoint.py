"""Engine/network checkpoint & restore for long steady-state runs.

A checkpoint is one pickle of the **entire live object graph** — the
:class:`~repro.sim.engine.Engine` (heap, timer wheel, event seq, clock),
the :class:`~repro.net.topology.Network` (switches, ports, in-flight
packets, transports, stats) and any caller state (e.g. the
:class:`repro.service.ServiceEmulator`) — taken at a quiescent
sim-time boundary (between events, right after ``engine.run(until=t)``
returns). Pickling the whole graph in one pass preserves every shared
reference through the pickle memo, so a restored run continues
**bit-identically**: same event order, same RNG draws, same counters —
the contract ``tests/test_checkpoint.py`` and ``tests/test_run_modes.py``
enforce.

Restrictions (``docs/SERVICE.md``): the pure backend only (the
compiled kernels hold C state), and every callback reachable from the
engine heap a module-level function, bound method or picklable callable
class, **no closure or lambda** (see ``EcnStreamFactory`` in
``repro.experiments.scenarios``). ``run_scenario`` refuses a checkpoint
with the compiled backend, telemetry (open file handles) or faults
(interceptor closures) up front (``scenarios.MODE_CONFLICTS``);
:func:`save` checks the engine again.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import tempfile
from typing import Any, Dict, Optional

from repro.version import __version__

#: On-disk payload schema; bump on layout changes.
CHECKPOINT_SCHEMA = 1


class CheckpointError(RuntimeError):
    """Checkpoint could not be taken, written, read or validated."""


def require_pure_engine(engine) -> None:
    from repro.sim.engine import Engine

    if not isinstance(engine, Engine):
        raise CheckpointError(
            f"checkpoint requires the pure backend; the active engine is "
            f"{type(engine).__module__}.{type(engine).__name__} (compiled "
            f"kernels hold unpicklable C state). Run with TLT_BACKEND=pure — "
            f"fingerprints are bit-identical across backends, so a pure "
            f"restore reproduces a compiled run's result.")


def save(path: str, net, extra: Optional[Dict[str, Any]] = None,
         key: Optional[str] = None) -> str:
    """Serialize ``net`` (+ ``extra`` caller state) to ``path``.

    ``key`` is an opaque configuration fingerprint (the job runner's
    cache key); :func:`load` refuses a checkpoint whose key does not
    match, so a resumed run can never silently continue a *different*
    scenario. Returns the final path (written atomically).
    """
    require_pure_engine(net.engine)
    payload = {
        "schema": CHECKPOINT_SCHEMA,
        "version": __version__,
        "key": key,
        "sim_time_ns": net.engine.now,
        "events_processed": net.engine.events_processed,
        "state": {"net": net, "extra": extra or {}},
    }
    try:
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise CheckpointError(
            f"simulation state does not pickle ({type(exc).__name__}: {exc}); "
            f"a closure or open handle is reachable from the engine heap — "
            f"see repro.sim.checkpoint's restrictions") from exc
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".ckpt-")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(blob)
        os.replace(tmp_path, path)
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(tmp_path)
        raise
    return path


def load(path: str, expect_key: Optional[str] = None) -> Dict[str, Any]:
    """Read a checkpoint payload back; validates schema and ``key``.

    Returns the payload dict: ``state`` holds ``net`` and ``extra``
    with all shared references intact; ``sim_time_ns`` /
    ``events_processed`` are the boundary the run resumes from.
    """
    try:
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
    except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
            ImportError) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("schema") != CHECKPOINT_SCHEMA:
        raise CheckpointError(
            f"{path}: unknown checkpoint schema "
            f"{payload.get('schema') if isinstance(payload, dict) else payload!r}")
    if expect_key is not None and payload.get("key") not in (None, expect_key):
        raise CheckpointError(
            f"{path}: checkpoint belongs to a different scenario config "
            f"(key {payload.get('key')!r} != expected {expect_key!r})")
    payload["state"]["net"].stamp()  # the resumed run's own cost, not a stale mark
    return payload


def run_path(directory: str, run_id: str) -> str:
    """The checkpoint file of run ``run_id`` (its manifest's) inside
    ``directory``: one file per run, so the runs of a grid sharing one
    directory never replace each other's."""
    return os.path.join(directory, f"checkpoint_{run_id}.pkl")
