"""``repro.stats.percentile`` against NumPy, bit for bit.

NumPy is a test-only dependency: it is the reference the pure-Python
helpers transcribe (``linear`` percentile, equal-width ``histogram``;
``fig11``'s median is ``statistics.median``), and nothing under ``src/``
may import it.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.stats.collector import Reservoir
from repro.stats.percentile import histogram, percentile, percentiles, summarize

POINTS = (0, 50, 99, 99.9, 100)

# What the simulator produces (integer nanoseconds) and what the figure
# modules make of it (floats after a unit division).
integer_ns = st.lists(st.integers(min_value=0, max_value=10**13), min_size=1, max_size=300)
floats = st.lists(
    st.floats(min_value=-1e12, max_value=1e12, allow_nan=False, allow_subnormal=False),
    min_size=1, max_size=300)
samples = st.one_of(
    integer_ns, floats,
    st.builds(lambda value, n: [value] * n, st.integers(0, 10**9), st.integers(1, 50)))
any_p = st.one_of(st.sampled_from(POINTS), st.floats(min_value=0, max_value=100))


def as_reservoir(values):
    reservoir = Reservoir(len(values))
    for value in values:
        reservoir.add(value)
    return reservoir


CONTAINERS = [list, tuple, as_reservoir, np.asarray]


@settings(max_examples=300, deadline=None)
@given(samples, any_p, st.sampled_from(CONTAINERS))
def test_percentile_equals_numpy(values, p, container):
    want = float(np.percentile(np.asarray(values, dtype=float), p))
    got = percentile(container(values), p)
    assert type(got) is float and got == want


@settings(max_examples=200, deadline=None)
@given(samples, st.sampled_from(CONTAINERS))
def test_summarize_median_and_percentiles_equal_numpy(values, container):
    arr = np.asarray(values, dtype=float)
    summary = summarize(container(values))
    assert summary["count"] == len(values) and type(summary["count"]) is int
    assert all(type(summary[key]) is float for key in summary if key != "count")
    assert summary["p50"] == float(np.percentile(arr, 50))
    assert summary["p99"] == float(np.percentile(arr, 99))
    assert summary["p999"] == float(np.percentile(arr, 99.9))
    assert summary["max"] == float(arr.max())
    if all(float(value).is_integer() for value in values):
        # Integer-valued samples (everything the simulator records) sum
        # exactly below 2**53 in any order; for the rest NumPy's pairwise
        # sum may differ from the correctly rounded one in the last bit.
        assert summary["mean"] == float(arr.mean())
    else:
        assert summary["mean"] == pytest.approx(float(arr.mean()), rel=1e-12, abs=1e-9)
    assert percentiles(container(values), POINTS) == [
        float(np.percentile(arr, p)) for p in POINTS]
    # fig11's median: the mean of the middle pair, not the p50 lerp.
    assert statistics.median(container(values)) == float(np.median(arr))


@settings(max_examples=200, deadline=None)
@given(samples, st.integers(min_value=1, max_value=40), st.sampled_from(CONTAINERS))
def test_histogram_equals_numpy(values, bins, container):
    want_counts, want_edges = np.histogram(np.asarray(values, dtype=float), bins=bins)
    counts, edges = histogram(container(values), bins)
    assert counts == want_counts.tolist() and edges == want_edges.tolist()
    assert all(type(count) is int for count in counts)


@pytest.mark.parametrize("values", [[7], [3, 9], [9, 3], [5, 5, 5]])
def test_smallest_sample_sets(values):
    arr = np.asarray(values, dtype=float)
    for p in POINTS + (25, 75):
        assert percentile(values, p) == float(np.percentile(arr, p))
    assert statistics.median(values) == float(np.median(arr))


def test_empty_input_is_zero():
    assert percentile([], 99) == 0.0
    assert percentiles([], (50, 99)) == [0.0, 0.0]
    assert summarize([])["count"] == 0


def test_the_runtime_never_imports_numpy():
    """A fresh interpreter that imports the run and report entry points
    and runs one TINY scenario has no ``numpy`` in ``sys.modules`` — nor,
    for its manifest, ``platform``, ``cProfile`` or ``pstats`` (a bench
    child pays for every module in ``setup_s`` and ``peak_rss_mb``)."""
    code = (
        "import sys\n"
        "import repro.experiments.scenarios, repro.service.run\n"
        "import repro.experiments.runner, repro.telemetry.report\n"
        "from repro.experiments.scale import TINY\n"
        "from repro.experiments.scenarios import ScenarioConfig, run_scenario\n"
        "result = run_scenario(ScenarioConfig(transport='dctcp', tlt=True, scale=TINY))\n"
        "result.summary_row()\n"
        "result.manifest['python']\n"
        "unwanted = ('numpy', 'platform', 'cProfile', 'pstats')\n"
        "loaded = sorted(name for name in sys.modules if name.split('.')[0] in unwanted)\n"
        "assert not loaded, loaded\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {key: value for key, value in os.environ.items() if not key.startswith("TLT_")}
    env["PYTHONPATH"] = src
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
