"""Half-open integer interval sets.

Used wherever the reproduction tracks byte coverage: which extents of a
cache file hold dirty data, which parts of the global file have been
persisted by the sync thread, and which holes remain.  Intervals are
``[start, end)`` pairs kept sorted and coalesced.

Paper correspondence: substrate for the extent arithmetic of §II-A file
domains and §III-B cached-extent tracking.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable, Iterator


class IntervalSet:
    """A sorted, coalesced set of half-open ``[start, end)`` intervals."""

    __slots__ = ("_starts", "_ends", "_total")

    def __init__(self, intervals: Iterable[tuple[int, int]] = ()):
        self._starts: list[int] = []
        self._ends: list[int] = []
        self._total = 0  # running covered-byte count, kept exact by mutators
        for start, end in intervals:
            self.add(start, end)

    # -- mutation -------------------------------------------------------------
    def add(self, start: int, end: int) -> None:
        """Insert ``[start, end)``, merging any overlapping/adjacent runs."""
        if end < start:
            raise ValueError(f"interval end {end} before start {start}")
        if end == start:
            return
        starts, ends = self._starts, self._ends
        # Tail fast paths: coverage tracking is overwhelmingly sequential
        # (cache extents, sync progress), so most adds land at or beyond the
        # rightmost run — no bisect or insert needed.
        if not starts:
            starts.append(start)
            ends.append(end)
            self._total += end - start
            return
        last_end = ends[-1]
        if start > last_end:  # strictly past the tail: new rightmost run
            starts.append(start)
            ends.append(end)
            self._total += end - start
            return
        if start >= starts[-1]:  # touches/overlaps only the tail run
            if end > last_end:
                ends[-1] = end
                self._total += end - last_end
            return
        # Runs that touch [start, end): first with end >= start, last with start <= end.
        lo = bisect_left(ends, start)
        hi = bisect_right(starts, end)
        if lo < hi:  # merge with runs lo..hi-1
            absorbed = 0
            for i in range(lo, hi):
                absorbed += ends[i] - starts[i]
            start = min(start, starts[lo])
            end = max(end, ends[hi - 1])
            del starts[lo:hi]
            del ends[lo:hi]
            self._total += (end - start) - absorbed
        else:
            self._total += end - start
        starts.insert(lo, start)
        ends.insert(lo, end)

    def clear(self) -> None:
        self._starts.clear()
        self._ends.clear()
        self._total = 0

    # -- queries ---------------------------------------------------------------
    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(zip(self._starts, self._ends))

    def __len__(self) -> int:
        return len(self._starts)

    def __bool__(self) -> bool:
        return bool(self._starts)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self._starts == other._starts and self._ends == other._ends

    def __repr__(self) -> str:
        runs = ", ".join(f"[{s},{e})" for s, e in self)
        return f"IntervalSet({runs})"

    @property
    def total(self) -> int:
        """Total bytes covered (O(1): maintained by the mutators)."""
        return self._total

    def covers(self, start: int, end: int) -> bool:
        """Is ``[start, end)`` fully contained?"""
        if end <= start:
            return True
        idx = bisect_right(self._starts, start) - 1
        return idx >= 0 and self._ends[idx] >= end

    def gaps(self, start: int, end: int) -> "IntervalSet":
        """The complement of the set within ``[start, end)``."""
        out = IntervalSet()
        pos = start
        starts, ends = self._starts, self._ends
        for i in range(bisect_right(ends, start), len(starts)):
            s = starts[i]
            if s >= end:
                break
            if s > pos:
                out.add(pos, s)
            pos = ends[i]
            if pos >= end:
                return out
        if pos < end:
            out.add(pos, end)
        return out

    def gap_bytes(self, start: int, end: int) -> int:
        """``gaps(start, end).total``, without building the set."""
        if end <= start:
            return 0
        starts, ends = self._starts, self._ends
        lo = bisect_right(ends, start)
        hi = bisect_left(starts, end)
        covered = 0
        for i in range(lo, hi):
            covered += min(ends[i], end) - max(starts[i], start)
        return (end - start) - covered
