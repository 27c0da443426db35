"""Tests for the receiver buffer / SACK block generation."""

import random

from hypothesis import given, strategies as st

from repro.transport.sack import ReceiverBuffer


def test_in_order_arrival_advances_cumulative():
    buf = ReceiverBuffer()
    assert buf.on_data(0, 100) == 100
    assert buf.on_data(100, 100) == 100
    assert buf.rcv_nxt == 200
    assert buf.sack_blocks() == ()


def test_out_of_order_creates_island():
    buf = ReceiverBuffer()
    buf.on_data(0, 100)
    buf.on_data(200, 100)
    assert buf.rcv_nxt == 100
    assert buf.sack_blocks() == ((200, 300),)


def test_hole_fill_merges_island():
    buf = ReceiverBuffer()
    buf.on_data(0, 100)
    buf.on_data(200, 100)
    assert buf.on_data(100, 100) == 200  # fills hole + merges island
    assert buf.rcv_nxt == 300
    assert buf.sack_blocks() == ()


def test_duplicate_data_advances_nothing():
    buf = ReceiverBuffer()
    buf.on_data(0, 100)
    assert buf.on_data(0, 100) == 0
    assert buf.on_data(50, 20) == 0


def test_partial_overlap_counts_new_bytes_only():
    buf = ReceiverBuffer()
    buf.on_data(0, 100)
    assert buf.on_data(50, 100) == 50
    assert buf.rcv_nxt == 150


def test_most_recent_island_reported_first():
    buf = ReceiverBuffer()
    buf.on_data(0, 10)
    buf.on_data(100, 10)
    buf.on_data(300, 10)
    buf.on_data(200, 10)  # most recent
    blocks = buf.sack_blocks()
    assert blocks[0] == (200, 210)
    assert set(blocks) == {(100, 110), (200, 210), (300, 310)}


def test_at_most_three_blocks():
    buf = ReceiverBuffer()
    for start in (100, 300, 500, 700, 900):
        buf.on_data(start, 10)
    assert len(buf.sack_blocks()) == 3
    assert len(buf.sack_blocks(max_blocks=2)) == 2


def test_adjacent_islands_merge():
    buf = ReceiverBuffer()
    buf.on_data(100, 50)
    buf.on_data(150, 50)
    assert buf.sack_blocks() == ((100, 200),)


def test_one_byte_fill():
    """TLT's 1-byte important ACK-clocking payload must advance the
    cumulative point by exactly one byte when it lands on the hole."""
    buf = ReceiverBuffer()
    buf.on_data(0, 100)
    buf.on_data(101, 100)
    # The 1 byte fills the hole and merges the 100-byte island.
    assert buf.on_data(100, 1) == 101
    assert buf.rcv_nxt == 201


@given(
    st.lists(
        st.tuples(st.integers(0, 50), st.integers(1, 10)),
        min_size=1,
        max_size=60,
    )
)
def test_property_matches_reference_set_model(chunks):
    """The interval implementation agrees with a naive byte-set model."""
    buf = ReceiverBuffer()
    model = set()
    for seq, length in chunks:
        buf.on_data(seq, length)
        model.update(range(seq, seq + length))
        # Cumulative point: first missing byte.
        expected_nxt = 0
        while expected_nxt in model:
            expected_nxt += 1
        assert buf.rcv_nxt == expected_nxt
        assert buf.received_total() == len(model | set(range(expected_nxt)))
        # Islands must be disjoint, sorted, above rcv_nxt, and match.
        covered = set()
        prev_hi = buf.rcv_nxt
        for lo, hi in sorted(buf.intervals):
            assert lo > prev_hi  # disjoint with a real gap
            assert lo < hi
            covered.update(range(lo, hi))
            prev_hi = hi
        assert covered == {b for b in model if b >= buf.rcv_nxt}


@given(st.lists(st.integers(0, 30), min_size=1, max_size=40), st.integers(0, 1000))
def test_property_random_permutation_completes(order, seed):
    """Any arrival order of all segments yields a complete stream."""
    rng = random.Random(seed)
    segs = sorted(set(order))
    full = list(range(max(segs) + 1))
    rng.shuffle(full)
    buf = ReceiverBuffer()
    for seg in full:
        buf.on_data(seg * 10, 10)
    assert buf.rcv_nxt == (max(full) + 1) * 10
    assert buf.sack_blocks() == ()


def _reference_on_data(rcv_nxt, intervals, seq, length):
    """The merge ``ReceiverBuffer.on_data`` used before it inserted in
    place (rebuild the island list, append, sort); returns the new
    ``(rcv_nxt, intervals)``."""
    start, end = seq, seq + length
    if length <= 0 or end <= rcv_nxt:
        return rcv_nxt, intervals
    start = max(start, rcv_nxt)
    if start <= rcv_nxt and not intervals:
        return end, intervals
    merged = []
    for lo, hi in intervals:
        if hi < start or lo > end:
            merged.append((lo, hi))
        else:
            start, end = min(start, lo), max(end, hi)
    merged.append((start, end))
    merged.sort()
    while merged and merged[0][0] <= rcv_nxt:
        lo, hi = merged.pop(0)
        rcv_nxt = max(rcv_nxt, hi)
    return rcv_nxt, merged


@given(st.lists(st.tuples(st.integers(0, 60), st.integers(0, 12)), max_size=80))
def test_in_place_merge_matches_rebuild_and_sort(arrivals):
    """Any arrival order, with duplicates, overlaps and adjacent pieces."""
    buf = ReceiverBuffer()
    rcv_nxt, intervals = 0, []
    for seq, length in arrivals:
        before = buf.rcv_nxt
        advanced = buf.on_data(seq, length)
        rcv_nxt, intervals = _reference_on_data(rcv_nxt, intervals, seq, length)
        assert (buf.rcv_nxt, buf.intervals) == (rcv_nxt, intervals)
        assert advanced == rcv_nxt - before
