"""Compare two run sets: ``python bench/compare.py A.json B.json``.

A run set is what ``run.py --out FILE`` accumulates: any number of runs
(workloads x seeds x trace modes). ``A`` is the parent (or the first set
of a repeatability check), ``B`` the change (or the second set).

For every workload and end-to-end metric the report gives both medians,
how much worse ``B``'s is as a share of ``A``'s, the metric's bound, and
each side's run-to-run spread (first to third quartile over the
median). The verdict follows the claim procedure in ``README.md``:

- ``better``: every run of ``B`` reads better than every run of ``A``;
- ``unresolved``: a side's spread exceeds the bound, so the sets cannot
  tell a change of that size from noise;
- ``regression``: ``B``'s median is worse by more than the bound;
- ``ok``: otherwise.

Simulated values and exact counters are compared run by run instead:
for every (workload, seed) in both sets they must be bit-identical
(``exact`` lines), which is what a simulator-only change has to keep.
Per-layer host metrics have no bound; their medians are listed.

Exit code 0 when nothing is ``regression``, ``unresolved`` or differs
where it must be exact.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spec  # noqa: E402 - needs the path above

DEFINITIONS = {d["name"]: d for d in spec.END_TO_END + spec.PER_LAYER}


def load(path: str) -> dict:
    """``{(workload, trace): {seed: {metric: value}}}`` of a run set."""
    with open(path, encoding="utf-8") as handle:
        runs = json.load(handle)["runs"]
    table: dict = {}
    for run in runs:
        stamp = run["provenance"]
        values = {name: metric["value"] for name, metric in run["metrics"].items()}
        table.setdefault((stamp["workload"], stamp["trace"]), {})[stamp["seed"]] = values
    return table


def spread(values) -> float:
    """First-to-third-quartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (quartiles[2] - quartiles[0]) / abs(median) if median else 0.0


def verdict(name: str, a_values, b_values) -> dict:
    """Medians, worsening, spreads and status of one bounded metric."""
    definition = DEFINITIONS[name]
    sign = 1.0 if definition["better"] == "lower" else -1.0
    a_median, b_median = statistics.median(a_values), statistics.median(b_values)
    worse = sign * (b_median - a_median) / abs(a_median)
    noise = max(spread(a_values), spread(b_values))
    bound = definition["bound"]
    if max(sign * b for b in b_values) < min(sign * a for a in a_values):
        status = "better"
    elif noise > bound:
        status = "unresolved"
    elif worse > bound:
        status = "regression"
    else:
        status = "ok"
    return {"a": a_median, "b": b_median, "worse": worse, "bound": bound,
            "spread_a": spread(a_values), "spread_b": spread(b_values), "status": status}


def compare(a: dict, b: dict) -> tuple:
    """Report lines and the number of findings that fail the comparison."""
    lines, failures = [], 0
    for key in sorted(set(a) & set(b)):
        workload, trace = key
        seeds_a, seeds_b = a[key], b[key]
        lines.append(f"== {workload} ({'per-layer' if trace else 'end-to-end'}; "
                     f"{len(seeds_a)} vs {len(seeds_b)} runs)")
        names = [n for n in DEFINITIONS if all(n in v for v in seeds_a.values())]
        for name in names:
            a_values = [v[name] for v in seeds_a.values()]
            b_values = [v[name] for v in seeds_b.values() if name in v]
            if not b_values:
                continue
            if "bound" in DEFINITIONS[name]:
                row = verdict(name, a_values, b_values)
                failures += row["status"] in ("regression", "unresolved")
                lines.append(
                    f"{name:30s} A {row['a']:12.5f}  B {row['b']:12.5f}  "
                    f"worse {100 * row['worse']:+7.2f} %  bound {100 * row['bound']:5.1f} %  "
                    f"spread {100 * row['spread_a']:5.2f}/{100 * row['spread_b']:5.2f} %  "
                    f"{row['status']}")
            elif not spec.is_simulated(name):
                lines.append(f"{name:38s} A {statistics.median(a_values):16.5f}  "
                             f"B {statistics.median(b_values):16.5f}")
        shared = sorted(set(seeds_a) & set(seeds_b))
        differing = [(seed, name) for seed in shared for name in names
                     if spec.is_simulated(name) and name in seeds_b[seed]
                     and seeds_a[seed][name] != seeds_b[seed][name]]
        failures += bool(differing)
        lines.append(f"exact: simulated values of {len(shared)} shared seeds "
                     + ("identical" if not differing else
                        "DIFFER: " + ", ".join(f"seed {s} {n}" for s, n in differing[:12])))
    return lines, failures


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__.splitlines()[0], file=sys.stderr)
        return 2
    lines, failures = compare(load(sys.argv[1]), load(sys.argv[2]))
    print("\n".join(lines))
    print(f"{failures} finding(s) fail the comparison")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
