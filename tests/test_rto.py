"""Tests for RTO estimation (Linux-style SRTT/RTTVAR)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.units import MICROS, MILLIS
from repro.transport.recovery import RtoEstimator, resolve_recovery


def fixed_rto(rto_ns, **bounds):
    """A static RTO: the base clamped to ``[rto_ns, rto_ns]``."""
    return RtoEstimator(rto_ns, base_max=rto_ns, **bounds)


def test_first_sample_initializes_srtt_and_rttvar():
    rto = RtoEstimator(rto_min=1 * MILLIS)
    rto.on_rtt_sample(800 * MICROS)
    assert rto.srtt == 800 * MICROS
    assert rto.rttvar == 400 * MICROS


def test_rto_formula_srtt_plus_4x_var():
    rto = RtoEstimator(rto_min=1)
    rto.on_rtt_sample(1_000_000)
    # base_rto = srtt + 4*rttvar = 1ms + 4*0.5ms = 3ms
    assert rto.base_rto == 3_000_000


def test_rto_clamped_to_minimum():
    rto = RtoEstimator(rto_min=4 * MILLIS)
    rto.on_rtt_sample(10 * MICROS)
    assert rto.base_rto == 4 * MILLIS


def test_rto_clamped_to_maximum():
    rto = RtoEstimator(rto_min=1 * MILLIS, rto_max=10 * MILLIS)
    rto.on_rtt_sample(100 * MILLIS)
    assert rto.base_rto == 10 * MILLIS


def test_ewma_rounds_toward_zero():
    # Regression: RFC 6298's EWMA steps use integer division toward
    # zero. Python's floor division drags a negative delta one tick
    # low (-7 // 8 == -1), so a stream of samples a hair under SRTT
    # used to bleed SRTT/RTTVAR downward and under-shoot the RTO.
    rto = RtoEstimator(rto_min=1)
    rto.on_rtt_sample(1000)
    assert rto.srtt == 1000
    assert rto.rttvar == 500
    rto.on_rtt_sample(993)
    # srtt step: (993 - 1000) / 8 rounds to 0, not -1 (pre-fix: 999).
    assert rto.srtt == 1000
    # rttvar step: (7 - 500) / 4 rounds to -123, not -124 (pre-fix: 376).
    assert rto.rttvar == 377


def test_ewma_no_systematic_downward_bias():
    # Samples alternating ±1 ns around a stable RTT must not walk SRTT
    # away from it (floor division loses 1 ns on every negative delta).
    rto = RtoEstimator(rto_min=1)
    rto.on_rtt_sample(1_000_000)
    for i in range(400):
        rto.on_rtt_sample(1_000_001 if i % 2 else 999_999)
    assert abs(rto.srtt - 1_000_000) <= 2


def test_variance_shrinks_with_stable_rtt():
    rto = RtoEstimator(rto_min=1)
    for _ in range(100):
        rto.on_rtt_sample(1_000_000)
    assert rto.rttvar < 10_000  # EWMA converges toward zero variance
    assert abs(rto.srtt - 1_000_000) < 10_000


def test_variance_grows_with_volatile_rtt():
    """Bursty traffic inflates the RTO well beyond the mean RTT (§2.2)."""
    stable = RtoEstimator(rto_min=1)
    volatile = RtoEstimator(rto_min=1)
    for i in range(200):
        stable.on_rtt_sample(1_000_000)
        volatile.on_rtt_sample(200_000 if i % 2 else 2_000_000)
    assert volatile.base_rto > stable.base_rto


def test_backoff_doubles_rto():
    rto = RtoEstimator(rto_min=4 * MILLIS, rto_max=100 * MILLIS)
    assert rto.current == 4 * MILLIS
    rto.backoff()
    assert rto.current == 8 * MILLIS
    rto.backoff()
    assert rto.current == 16 * MILLIS


def test_backoff_capped_at_rto_max():
    rto = RtoEstimator(rto_min=4 * MILLIS, rto_max=10 * MILLIS)
    for _ in range(10):
        rto.backoff()
    assert rto.current == 10 * MILLIS


def test_new_sample_resets_backoff():
    rto = RtoEstimator(rto_min=4 * MILLIS)
    rto.backoff()
    rto.on_rtt_sample(100 * MICROS)
    assert rto.current == 4 * MILLIS


def test_nonpositive_sample_is_sanitized():
    rto = RtoEstimator(rto_min=1 * MILLIS)
    rto.on_rtt_sample(0)
    assert rto.srtt == 1


def test_invalid_bounds_rejected():
    with pytest.raises(ValueError):
        RtoEstimator(rto_min=0)
    with pytest.raises(ValueError):
        RtoEstimator(rto_min=10, rto_max=5)
    with pytest.raises(ValueError):
        RtoEstimator(rto_min=10, base_max=5)


def test_fixed_rto_ignores_samples():
    rto = resolve_recovery({"name": "fixed-rto", "rto_ns": 160 * MICROS}, "dctcp").estimator()
    rto.on_rtt_sample(50 * MILLIS)
    assert rto.base_rto == 160 * MICROS


def test_fixed_rto_still_backs_off():
    rto = fixed_rto(160 * MICROS)
    rto.backoff()
    assert rto.current == 320 * MICROS


@settings(max_examples=200, deadline=None)
@given(
    fixed=st.booleans(),
    ops=st.lists(st.one_of(st.integers(-5, 50 * MILLIS), st.none()), max_size=60),
)
def test_cached_rto_equals_recomputed_formula(fixed, ops):
    """``base_rto``/``current`` are attributes rewritten where their
    inputs change; after any sample/backoff sequence they must equal
    the formulas they used to be computed from on every read."""
    rto = (fixed_rto(160 * MICROS, rto_max=20 * MILLIS) if fixed
           else RtoEstimator(rto_min=1 * MILLIS, rto_max=20 * MILLIS))

    def recomputed_base():
        if fixed:
            return 160 * MICROS
        if rto.srtt == 0:
            return rto.rto_min
        return min(max(rto.srtt + max(rto.granularity, 4 * rto.rttvar), rto.rto_min), rto.rto_max)

    for op in ops:
        if op is None:
            rto.backoff()
        else:
            rto.on_rtt_sample(op)
        assert rto.base_rto == recomputed_base()
        assert rto.current == min(recomputed_base() << rto.backoff_count, rto.rto_max)
