"""EmpiricalCdf.sample: log-linear interpolation, pinned draws, edges."""

import math
import random

import pytest

from repro.workload.distributions import DISTRIBUTIONS, EmpiricalCdf


class FixedU:
    """Stand-in RNG returning one fixed uniform draw."""

    def __init__(self, u: float):
        self.u = u

    def random(self) -> float:
        return self.u


#: Pinned first six draws per distribution for random.Random(42) —
#: computed from the implementation, then frozen: any change to the
#: interpolation math or the knot tables shows up as a diff here.
PINNED_SEED42 = {
    "cache_follower": [8928, 2, 598, 453, 30703, 14139],
    "web_search": [251158, 4, 17282, 14197, 889136, 458098],
    "web_server": [3788, 4, 860, 630, 8290, 4494],
}


def test_pinned_samples_fixed_seed():
    assert set(PINNED_SEED42) == set(DISTRIBUTIONS)
    for name, expected in PINNED_SEED42.items():
        rng = random.Random(42)
        got = [DISTRIBUTIONS[name].sample(rng) for _ in range(len(expected))]
        assert got == expected, name


def test_first_knot_interpolates_from_size_one():
    """Below the first knot the left edge of the interpolation is
    size 1 (not the knot): a tiny u must land near 1, and u exactly at
    the first knot's probability must return the knot size."""
    ws = DISTRIBUTIONS["web_search"]
    assert ws.sample(FixedU(1e-9)) == 1
    assert ws.sample(FixedU(0.15)) == 6_000  # first knot, exact hit
    # Halfway (in probability) to the first knot: log-linear midpoint
    # of [1, 6000], nowhere near the arithmetic midpoint.
    mid = ws.sample(FixedU(0.075))
    assert mid == 77
    assert mid == pytest.approx(math.sqrt(1 * 6_000), rel=0.01)


def test_single_knot_cdf_interpolates_from_size_one():
    """A size-1 CDF still interpolates over [1, knot] instead of
    returning the knot constantly."""
    single = EmpiricalCdf("one", [(1_000, 1.0)])
    assert single.sample(FixedU(1e-12)) == 1
    # u = 0.5: geometric midpoint of [1, 1000] ~= sqrt(1000) ~= 32.
    assert single.sample(FixedU(0.5)) == 32
    rng = random.Random(7)
    draws = [single.sample(rng) for _ in range(6)]
    assert draws == [9, 3, 90, 2, 41, 13]  # pinned; spans the knot range
    assert all(1 <= d <= 1_000 for d in draws)


def test_last_knot_is_the_max():
    ws = DISTRIBUTIONS["web_search"]
    assert ws.sample(FixedU(0.9999999999)) == 30_000_000
    rng = random.Random(3)
    assert all(ws.sample(rng) <= 30_000_000 for _ in range(2_000))


def test_log_linear_between_interior_knots():
    """u halfway (in probability) between two knots lands on the
    geometric — not arithmetic — interpolant."""
    cdf = EmpiricalCdf("two", [(100, 0.5), (10_000, 1.0)])
    got = cdf.sample(FixedU(0.75))
    assert got == pytest.approx(math.sqrt(100 * 10_000), rel=0.01)
    assert got != pytest.approx((100 + 10_000) / 2, rel=0.2)


def test_validation_rejects_bad_tables():
    with pytest.raises(ValueError):
        EmpiricalCdf("empty", [])
    with pytest.raises(ValueError):
        EmpiricalCdf("unsorted", [(100, 0.5), (50, 1.0)])
    with pytest.raises(ValueError):
        EmpiricalCdf("short", [(100, 0.9)])  # doesn't reach 1.0


def test_mean_is_memoised_per_samples_and_seed():
    """``BackgroundTraffic`` asks for the same Monte-Carlo mean on every
    run: it is drawn once per ``(samples, seed)``, returns the identical
    float afterwards, and never touches a caller's RNG stream."""
    cdf = EmpiricalCdf("two-knots", [(1_000, 0.5), (100_000, 1.0)])

    def drawn(samples, seed):  # the uncached computation
        rng = random.Random(seed)
        return sum(cdf.sample(rng) for _ in range(samples)) / samples

    caller = random.Random(3)
    before = caller.getstate(), random.getstate()
    first = cdf.mean(samples=500, seed=7)
    assert first == drawn(500, 7)
    assert cdf.mean(samples=500, seed=7) == first  # bit-identical on repeat
    assert cdf.mean(samples=500, seed=8) == drawn(500, 8)
    assert cdf.mean(samples=400, seed=7) == drawn(400, 7)
    assert cdf.mean(samples=500, seed=7) == first  # other keys did not disturb it
    assert (caller.getstate(), random.getstate()) == before
