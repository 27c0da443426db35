"""Receiver-side sequence tracking and SACK block generation.

Works in abstract sequence units: bytes for the TCP family, packet
sequence numbers for the RoCE family.
"""

from __future__ import annotations

from typing import List, Tuple


class ReceiverBuffer:
    """Tracks the cumulative point and out-of-order islands."""

    __slots__ = ("rcv_nxt", "intervals", "last_seq")

    def __init__(self) -> None:
        self.rcv_nxt = 0
        #: Disjoint, sorted [start, end) islands strictly above rcv_nxt.
        self.intervals: List[Tuple[int, int]] = []
        self.last_seq = -1

    def on_data(self, seq: int, length: int) -> int:
        """Record arrival of [seq, seq+length); returns bytes newly
        advanced past the cumulative point (0 for pure duplicates)."""
        if length <= 0:
            return 0
        start, end = seq, seq + length
        self.last_seq = seq
        before = self.rcv_nxt
        if end <= self.rcv_nxt:
            return 0  # stale duplicate
        start = max(start, self.rcv_nxt)

        # In-order fast path: no islands and nothing to merge.
        if start <= self.rcv_nxt and not self.intervals:
            self.rcv_nxt = end
            return end - before

        # Merge into the island list, in place: the islands it touches
        # or overlaps are one run of the sorted list.
        intervals = self.intervals
        n = len(intervals)
        first = 0
        while first < n and intervals[first][1] < start:
            first += 1
        last = first
        while last < n and intervals[last][0] <= end:
            lo, hi = intervals[last]
            if lo < start:
                start = lo
            if hi > end:
                end = hi
            last += 1
        intervals[first:last] = [(start, end)]

        # Advance the cumulative point across now-contiguous islands.
        while intervals and intervals[0][0] <= self.rcv_nxt:
            lo, hi = intervals.pop(0)
            if hi > self.rcv_nxt:
                self.rcv_nxt = hi
        return self.rcv_nxt - before

    def sack_blocks(self, max_blocks: int = 3) -> Tuple[Tuple[int, int], ...]:
        """Up to ``max_blocks`` SACK blocks; the island holding the most
        recently received sequence is reported first (RFC 2018)."""
        intervals = self.intervals
        if not intervals:
            return ()
        if len(intervals) == 1:
            # One island: recency reordering and truncation are no-ops.
            return (intervals[0],)
        blocks = list(intervals)
        recent = None
        for block in blocks:
            if block[0] <= self.last_seq < block[1]:
                recent = block
                break
        if recent is not None:
            blocks.remove(recent)
            blocks.insert(0, recent)
        return tuple(blocks[:max_blocks])

    def received_total(self) -> int:
        """Total distinct sequence units received."""
        return self.rcv_nxt + sum(hi - lo for lo, hi in self.intervals)
