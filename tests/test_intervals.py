import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.intervals import IntervalSet


def iv(*pairs):
    return IntervalSet(pairs)


class TestAdd:
    def test_empty(self):
        s = IntervalSet()
        assert not s
        assert s.total == 0

    def test_single(self):
        s = iv((0, 10))
        assert list(s) == [(0, 10)]
        assert s.total == 10

    def test_zero_length_ignored(self):
        s = iv((5, 5))
        assert not s

    def test_merge_overlap(self):
        s = iv((0, 10), (5, 20))
        assert list(s) == [(0, 20)]

    def test_merge_adjacent(self):
        s = iv((0, 10), (10, 20))
        assert list(s) == [(0, 20)]

    def test_disjoint_sorted(self):
        s = iv((20, 30), (0, 10))
        assert list(s) == [(0, 10), (20, 30)]

    def test_bridge_many(self):
        s = iv((0, 5), (10, 15), (20, 25), (4, 21))
        assert list(s) == [(0, 25)]

    def test_contained(self):
        s = iv((0, 100), (10, 20))
        assert list(s) == [(0, 100)]

    def test_invalid(self):
        with pytest.raises(ValueError):
            iv((10, 5))


class TestQueries:
    def test_covers(self):
        s = iv((0, 10), (20, 30))
        assert s.covers(0, 10)
        assert s.covers(2, 8)
        assert not s.covers(5, 15)
        assert not s.covers(10, 20)
        assert s.covers(7, 7)  # empty range always covered

    def test_gaps(self):
        s = iv((10, 20), (30, 40))
        assert list(s.gaps(0, 50)) == [(0, 10), (20, 30), (40, 50)]
        assert list(s.gaps(10, 40)) == [(20, 30)]
        assert not s.gaps(12, 18)

    def test_eq_and_copy(self):
        s = iv((0, 10))
        t = IntervalSet(s)
        assert s == t
        t.add(20, 30)
        assert s != t


# -- property-based --------------------------------------------------------------

ranges = st.tuples(st.integers(0, 200), st.integers(0, 200)).map(
    lambda t: (min(t), max(t))
)


def reference(pairs_add):
    """Set-of-points reference model."""
    pts = set()
    for a, b in pairs_add:
        pts.update(range(a, b))
    return pts


def points_of(s: IntervalSet):
    pts = set()
    for a, b in s:
        pts.update(range(a, b))
    return pts


@settings(max_examples=200, deadline=None)
@given(st.lists(ranges, max_size=12))
def test_add_matches_point_set(pairs):
    s = IntervalSet(pairs)
    assert points_of(s) == reference(pairs)
    # invariants: sorted, coalesced, non-empty runs
    runs = list(s)
    for (a1, b1), (a2, b2) in zip(runs, runs[1:]):
        assert b1 < a2  # strictly separated (adjacent would have merged)
    assert all(a < b for a, b in runs)


@settings(max_examples=150, deadline=None)
@given(st.lists(ranges, max_size=8), ranges)
def test_gaps_complement(pairs, window):
    lo, hi = window
    s = IntervalSet(pairs)
    inside = points_of(s) & set(range(lo, hi))
    gap_points = points_of(s.gaps(lo, hi))
    assert gap_points == set(range(lo, hi)) - inside


@settings(max_examples=300, deadline=None)
@given(st.lists(ranges, max_size=8), st.integers(-20, 220), st.integers(-20, 220))
def test_gaps_and_gap_bytes_match_a_byte_set(pairs, lo, hi):
    """``gaps`` (bisected to the first run that reaches ``lo``) and
    ``gap_bytes`` against brute force, windows before, across, between and
    past the runs included — and an inverted window is empty."""
    s = IntervalSet(pairs)
    missing = set(range(lo, hi)) - reference(pairs)
    gaps = s.gaps(lo, hi)
    assert points_of(gaps) == missing
    assert s.gap_bytes(lo, hi) == gaps.total == len(missing)
    runs = list(gaps)
    assert all(a < b for a, b in runs) and all(b1 < a2 for (_, b1), (a2, _) in zip(runs, runs[1:]))


# -- differential: interleaved schedules vs a byte-bitmap oracle -----------------
#
# The running `total` counter is maintained incrementally by add and clear;
# a drift bug would only surface after a *sequence* of mutations.  Drive the
# set and a brute-force bitmap through the same seeded random schedule and
# compare everything after every single step.

SPAN = 256

ops = st.one_of(
    st.tuples(st.just("add"), ranges),
    st.tuples(st.just("clear"), st.none()),
)


def bitmap_runs(bits):
    runs, start = [], None
    for i, bit in enumerate(bits):
        if bit and start is None:
            start = i
        elif not bit and start is not None:
            runs.append((start, i))
            start = None
    if start is not None:
        runs.append((start, len(bits)))
    return runs


@settings(max_examples=200, deadline=None)
@given(st.lists(ops, max_size=30))
def test_schedule_matches_bitmap_oracle(schedule):
    s = IntervalSet()
    bits = bytearray(SPAN)
    for op, rng in schedule:
        if op == "add":
            s.add(*rng)
            bits[rng[0] : rng[1]] = b"\x01" * (rng[1] - rng[0])
        else:
            s.clear()
            bits = bytearray(SPAN)
        # every step: runs, running total, and the derived queries agree
        assert list(s) == bitmap_runs(bits)
        assert s.total == sum(bits)
        assert list(s.gaps(0, SPAN)) == bitmap_runs(bytes(1 - b for b in bits))
        mid = SPAN // 2
        assert s.gap_bytes(0, mid) == mid - sum(bits[:mid])
        assert s.covers(0, mid) == all(bits[:mid])
