"""Stub experiment module for CLI tests (registered via monkeypatch).

Mirrors the contract of a real figure module — ``run(scale, seeds)``
returning rows, a ``TABLES`` declaration and ``CLAIMS`` — without
running any simulation, so CLI plumbing tests stay fast.
"""

from typing import Dict, List, Sequence

TABLES = {"": ("stub experiment", ["scheme", "value"])}

#: Arguments of the last run() call, for assertions.
LAST_CALL: Dict = {}


def run(scale="small", seeds: Sequence[int] = (1,)) -> List[Dict]:
    LAST_CALL.clear()
    LAST_CALL.update({"scale": scale, "seeds": tuple(seeds)})
    return [{"scheme": "stub", "value": 1.0 * len(tuple(seeds))}]


CLAIMS = {
    "one-seed": ("The stub averages one seed",
                 lambda rows: (rows[0]["value"] == 1.0, rows[0]["value"])),
    "two-seeds": ("The stub averages two seeds",
                  lambda rows: (rows[0]["value"] == 2.0, "one seed")),
}
