"""Export experiment rows to CSV/JSON for external plotting and CI."""

from __future__ import annotations

import csv
import json
import os
from typing import Dict, Iterable, List, Sequence


def rows_to_csv(rows: Iterable[Dict], path: str, columns: Sequence[str] = ()) -> str:
    """Write rows to ``path`` (directories created); returns the path.

    When ``columns`` is empty, the union of all row keys is used, in
    first-seen order.
    """
    rows = list(rows)
    if not columns:
        seen: List[str] = []
        for row in rows:
            for key in row:
                if key not in seen:
                    seen.append(key)
        columns = seen
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(columns), extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow({c: row.get(c, "") for c in columns})
    return path


def write_json(payload: Dict, path: str) -> str:
    """Write a JSON document to ``path`` (directories created); returns
    the path. Used for the CLI's manifest documents."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
