"""Benchmark: regenerate Figure 14 (testbed incast microbenchmark)."""

from repro.experiments import fig14_incast_microbench as exp
from repro.experiments.common import format_table


def test_fig14_incast(benchmark, bench_scale):
    counts = (8, 40, 100, 160)
    result = benchmark.pedantic(
        exp.run, kwargs={"scale": bench_scale, "flow_counts": counts, "cdf_flows": 128},
        iterations=1, rounds=1,
    )
    print()
    for part, (title, columns) in exp.TABLES.items():
        print(format_table(result[part], columns, title))
    rows = result["sweep"]
    assert len(rows) == 2 * 3 * len(counts)
    for transport in ("tcp", "dctcp"):
        tlt_rows = [r for r in rows if r["transport"] == transport and r["scheme"] == "tlt"]
        # TLT handles the highest fan-in without a single timeout.
        assert all(r["timeouts"] == 0 for r in tlt_rows)

    # Panel (c): the FCT CDF at 128 flows.
    tlt = next(r for r in result["cdf"] if r["scheme"] == "tlt")
    base = next(r for r in result["cdf"] if r["scheme"] == "rto4ms")
    if base["p99_ms"] > 2.0:  # baseline tail is timeout-dominated
        assert tlt["p99_ms"] < base["p99_ms"]
    else:  # light congestion: TLT must stay in the same ballpark
        assert tlt["p99_ms"] <= base["p99_ms"] * 1.5
