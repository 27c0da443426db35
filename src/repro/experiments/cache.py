"""Content-addressed on-disk cache for experiment job results.

A job is identified by the SHA-256 fingerprint of its fully resolved
:class:`~repro.experiments.scenarios.ScenarioConfig` (every field,
recursively, including nested dataclasses and enums), the seed, the
metrics function, the code version and any workload of its own. Results
are stored as one small JSON artifact per key, so re-running an
experiment — locally or in CI — only executes the (scenario, seed)
pairs whose configuration or code actually changed.

The cache directory defaults to ``~/.cache/tlt-repro`` and can be
moved with the ``TLT_CACHE_DIR`` environment variable or the
``--cache-dir`` CLI flag. The code-version component prefers the git
commit of the source tree (so editing + committing invalidates
everything) and falls back to the package version for non-git
installs; when iterating on uncommitted changes, pass ``--no-cache``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import tempfile
import time
from enum import Enum
from pathlib import Path
from typing import Any, Dict, Optional

from repro.version import __version__

#: Bump to invalidate every cached artifact on cache-format changes.
CACHE_SCHEMA = 1

ENV_CACHE_DIR = "TLT_CACHE_DIR"

_code_version_memo: Optional[str] = None


def default_cache_dir() -> Path:
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "tlt-repro"


def code_version() -> str:
    """Version string mixed into every fingerprint.

    Git HEAD of the source tree, else package ``__version__``.
    Memoised per process.
    """
    global _code_version_memo
    if _code_version_memo is None:
        _code_version_memo = _git_head() or f"pkg-{__version__}"
    return _code_version_memo


def _git_head() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "-C", os.path.dirname(os.path.abspath(__file__)),
             "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    head = out.stdout.strip()
    return f"git-{head}" if out.returncode == 0 and head else None


def encode_value(value: Any) -> Any:
    """Recursively encode a config value into canonical JSON-able data.

    Dataclasses keep their type name (so two config classes with the
    same field values hash differently), enums encode their value, and
    sets are sorted for order independence. Unknown objects fall back
    to ``repr`` — stable enough for config-style values.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__dataclass__": type(value).__name__,
            "fields": {
                f.name: encode_value(getattr(value, f.name))
                for f in dataclasses.fields(value)
            },
        }
    if isinstance(value, Enum):
        return {"__enum__": type(value).__name__, "value": encode_value(value.value)}
    if isinstance(value, dict):
        return {str(k): encode_value(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [encode_value(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted((encode_value(v) for v in value), key=repr)
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    return repr(value)


def fingerprint(config: Any, seed: int, metrics: Optional[str] = None,
                version: Optional[str] = None, traffic: Optional[str] = None) -> str:
    """Content hash of (config, seed, metrics reducer, code version) and a
    run's own workload's encoding, if any (a plain run's key is unchanged)."""
    payload = {
        "schema": CACHE_SCHEMA,
        "code": version if version is not None else code_version(),
        "config": encode_value(config),
        "seed": int(seed),
        "metrics": metrics,
    }
    if traffic is not None:
        payload["traffic"] = traffic
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ResultCache:
    """One JSON artifact per fingerprint under ``root``."""

    def __init__(self, root: Optional[os.PathLike] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[Dict]:
        """Return the cached artifact for ``key`` or None.

        Corrupt or partially written artifacts count as misses rather
        than raising (a crashed writer must not poison later sweeps).
        """
        path = self.path_for(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                artifact = json.load(handle)
            if not isinstance(artifact, dict) or artifact.get("key") != key:
                raise ValueError("artifact/key mismatch")
            if "row" not in artifact or "manifest" not in artifact:
                raise ValueError("truncated artifact")
        except (OSError, ValueError):
            self.misses += 1
            return None
        self.hits += 1
        return artifact

    def put(self, key: str, row: Dict, *, manifest: Dict,
            seed: Optional[int] = None) -> Path:
        """Atomically write one result artifact: the row and the manifest of
        the run that produced it, code version stamped; returns its path."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        artifact = {
            "key": key,
            "row": row,
            "seed": seed,
            "manifest": {**manifest, "code": code_version()},
            "created_unix": time.time(),
        }
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(artifact, handle)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    def clear(self) -> int:
        """Delete every artifact; returns how many were removed."""
        removed = 0
        if not self.root.exists():
            return 0
        for path in self.root.glob("*/*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))
