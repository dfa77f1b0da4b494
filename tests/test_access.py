import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.access
from repro.access import (
    AccessTable,
    RankAccess,
    coverage_in_window,
    merge_extent_arrays,
    ranks_interleaved,
)
from repro.payload import gather_payload


def access_of(*pairs):
    offs = np.array([p[0] for p in pairs], dtype=np.int64)
    lens = np.array([p[1] for p in pairs], dtype=np.int64)
    return RankAccess(offs, lens)


class TestConstruction:
    def test_empty(self):
        a = RankAccess.empty_access()
        assert a.empty
        assert a.start_offset == 0
        assert a.end_offset == -1
        assert a.total_bytes == 0

    def test_sorted_on_build(self):
        a = access_of((100, 10), (0, 10))
        assert list(a.offsets) == [0, 100]

    def test_zero_length_dropped(self):
        a = access_of((0, 10), (50, 0))
        assert len(a) == 1

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            access_of((0, 10), (5, 10))

    def test_adjacent_allowed(self):
        a = access_of((0, 10), (10, 10))
        assert a.total_bytes == 20

    def test_contiguous_helper(self):
        a = RankAccess.contiguous(100, 50)
        assert a.start_offset == 100
        assert a.end_offset == 149

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError, match="negative extent length -1"):
            RankAccess(np.array([0]), np.array([-1]))

    def test_negative_offset_rejected(self):
        # Used to be accepted silently and reach the PFS layout.
        with pytest.raises(ValueError, match="negative file offset -4096"):
            RankAccess.contiguous(-4096, 4096)
        with pytest.raises(ValueError, match="negative file offset -1"):
            access_of((10, 5), (-1, 5))

    @pytest.mark.parametrize("field", ["offsets", "lengths"])
    def test_non_integer_dtype_rejected(self, field):
        args = {"offsets": np.array([0, 8]), "lengths": np.array([4, 4])}
        args[field] = args[field].astype(np.float64)
        message = f"{field} must have an integer dtype.*float64"
        with pytest.raises(ValueError, match=message):
            RankAccess(args["offsets"], args["lengths"])

    def test_empty_lists_accepted(self):
        # An empty list is a float64 array to numpy; it carries no values.
        assert RankAccess([], []).empty


class TestWindows:
    def test_bytes_in_window_full(self):
        a = access_of((0, 10), (20, 10))
        assert a.bytes_in_window(0, 30) == 20

    def test_bytes_in_window_partial(self):
        a = access_of((0, 10), (20, 10))
        assert a.bytes_in_window(5, 25) == 10  # 5 from first, 5 from second

    def test_bytes_in_window_hole(self):
        a = access_of((0, 10), (20, 10))
        assert a.bytes_in_window(10, 20) == 0

    def test_slice_window_trims(self):
        a = access_of((0, 10), (20, 10))
        ws = a.slice_window(5, 25)
        assert list(ws.offsets) == [5, 20]
        assert list(ws.lengths) == [5, 5]
        assert ws.nbytes == 10
        assert list(ws.buffer_starts) == [5, 10]

    def test_slice_empty_window(self):
        a = access_of((0, 10))
        ws = a.slice_window(100, 200)
        assert ws.nbytes == 0 and ws.count == 0

    def test_payload_for(self):
        # A window's payload is the rank's flat buffer at ``buffer_starts``.
        a = access_of((0, 10), (20, 10))
        ws = a.slice_window(5, 25)
        flat = gather_payload(7, a.offsets, a.lengths)
        pieces = [flat[b : b + n] for b, n in zip(ws.buffer_starts, ws.lengths)]
        assert gather_payload(7, ws.offsets, ws.lengths).tolist() == np.concatenate(pieces).tolist()

    def test_cum_bytes_matches_windows(self):
        a = access_of((3, 7), (15, 5), (30, 10))
        table = AccessTable.gather({0: a}, 1)
        # One row of 44 unit windows: cumulative sums give every [lo, hi).
        nbytes, _ = table.window_sums(np.arange(0, 45)[None, :])
        cum = np.concatenate(([0], np.cumsum(nbytes[0, 0])))
        for lo in range(0, 44):
            for hi in range(lo, 45):
                assert cum[hi] - cum[lo] == a.bytes_in_window(lo, hi)

    def test_cum_counts_monotone(self):
        a = access_of((0, 4), (10, 4), (20, 4))
        table = AccessTable.gather({0: a}, 1)
        _, starts = table.window_sums(np.array([[0, 1, 10, 11, 25]]))
        # extents starting in [0,1), [1,10), [10,11), [11,25)
        assert starts[0, 0].tolist() == [1, 0, 1, 1]
        assert (starts >= 0).all()


extent_lists = st.lists(
    st.tuples(st.integers(0, 500), st.integers(1, 30)), min_size=0, max_size=15
)


def dedupe(pairs):
    """Drop overlapping extents (RankAccess requires disjoint)."""
    out = []
    covered = set()
    for off, length in sorted(pairs):
        cells = set(range(off, off + length))
        if not cells & covered:
            out.append((off, length))
            covered |= cells
    return out


@settings(max_examples=150, deadline=None)
@given(extent_lists, st.integers(0, 550), st.integers(0, 60))
def test_bytes_in_window_matches_bruteforce(pairs, lo, width):
    pairs = dedupe(pairs)
    if not pairs:
        return
    a = access_of(*pairs)
    hi = lo + width
    expected = sum(
        max(0, min(hi, off + length) - max(lo, off)) for off, length in pairs
    )
    assert a.bytes_in_window(lo, hi) == expected
    ws = a.slice_window(lo, hi)
    assert ws.nbytes == expected
    assert int(ws.lengths.sum()) if ws.count else 0 == expected


@settings(max_examples=100, deadline=None)
@given(st.lists(extent_lists, min_size=1, max_size=5))
def test_merge_extent_arrays_matches_pointset(rank_lists):
    offsets, lengths, pts = [], [], set()
    for pairs in rank_lists:
        offsets.append(np.array([p[0] for p in pairs], dtype=np.int64))
        lengths.append(np.array([p[1] for p in pairs], dtype=np.int64))
        for off, length in pairs:
            pts.update(range(off, off + length))
    starts, ends = merge_extent_arrays(offsets, lengths)
    merged_pts = set()
    for s, e in zip(starts, ends):
        merged_pts.update(range(int(s), int(e)))
    assert merged_pts == pts
    # runs strictly increasing and disjoint
    for i in range(1, len(starts)):
        assert starts[i] > ends[i - 1]


def test_coverage_in_window_clips():
    starts = np.array([0, 20, 40], dtype=np.int64)
    ends = np.array([10, 30, 50], dtype=np.int64)
    assert coverage_in_window(starts, ends, 5, 45) == [(5, 10), (20, 30), (40, 45)]
    assert coverage_in_window(starts, ends, 10, 20) == []
    assert coverage_in_window(starts, ends, 100, 200) == []


# -- the all-ranks table ----------------------------------------------------------


def table_of(rank_pairs):
    """An AccessTable from per-rank (offset, length) lists."""
    offs = [p[0] for pairs in rank_pairs for p in pairs]
    lens = [p[1] for pairs in rank_pairs for p in pairs]
    ptr = np.concatenate(([0], np.cumsum([len(pairs) for pairs in rank_pairs])))
    return AccessTable(
        np.array(offs, dtype=np.int64), np.array(lens, dtype=np.int64), ptr
    )


class TestTable:
    def test_rank_views_match_constructor(self):
        ranks = [[(100, 10), (0, 10)], [], [(5, 5), (50, 0), (20, 1)]]
        table = table_of(ranks)
        assert table.nranks == 3 and len(table) == 4
        for r, pairs in enumerate(ranks):
            view, ref = table.rank(r), access_of(*pairs)
            for name in ("offsets", "lengths", "ends", "prefix"):
                assert np.array_equal(getattr(view, name), getattr(ref, name)), name
            assert view.total_bytes == ref.total_bytes
            assert view.start_offset == ref.start_offset
            assert view.end_offset == ref.end_offset
            assert view.table is table and view.rank == r
        assert table.st_offsets.tolist() == [0, 0, 5]
        assert table.end_offsets.tolist() == [109, -1, 20]
        assert (table.min_st, table.max_end) == (0, 109)

    def test_views_are_zero_copy_and_read_only(self):
        table = table_of([[(0, 4), (8, 4)], [(4, 4)]])
        view = table.rank(0)
        assert np.shares_memory(view.offsets, table.offsets)
        assert np.shares_memory(view.ends, table.ends)
        assert table.rank(0) is view  # views are handed out again
        with pytest.raises(ValueError):
            view.offsets[0] = 1

    def test_rank_out_of_range(self):
        table = table_of([[(0, 4)]])
        for bad in (-1, 1):
            with pytest.raises(IndexError, match=f"rank {bad} outside"):
                table.rank(bad)

    def test_overlap_names_rank(self):
        with pytest.raises(ValueError, match="overlap in rank 1 at offset 12"):
            table_of([[(0, 10)], [(10, 5), (12, 5)]])
        # different ranks may overlap freely
        assert table_of([[(0, 10)], [(5, 10)]]).interleaved

    @pytest.mark.parametrize(
        "ptr, message",
        [
            ([1, 2], r"rank_ptr must run from 0 to len\(offsets\)=2, got \[1\]..\[2\]"),
            ([0, 1], r"rank_ptr must run from 0 to len\(offsets\)=2, got \[0\]..\[1\]"),
            ([0, 2, 1, 2], "rank_ptr must be non-decreasing, got 2 then 1 at index 1"),
            ([], "rank_ptr must run from 0"),
        ],
    )
    def test_bad_rank_ptr_rejected(self, ptr, message):
        with pytest.raises(ValueError, match=message):
            rank_ptr = np.array(ptr, dtype=np.int64)
            AccessTable(np.array([0, 8]), np.array([4, 4]), rank_ptr)

    def test_bad_fields_rejected(self):
        ptr = np.array([0, 2])
        with pytest.raises(ValueError, match="negative file offset -8"):
            AccessTable(np.array([0, -8]), np.array([4, 4]), ptr)
        with pytest.raises(ValueError, match="negative extent length -4"):
            AccessTable(np.array([0, 8]), np.array([4, -4]), ptr)
        with pytest.raises(ValueError, match="rank_ptr must have an integer dtype"):
            AccessTable(np.array([0, 8]), np.array([4, 4]), np.array([0.0, 2.0]))
        with pytest.raises(ValueError, match="offsets must have an integer dtype"):
            AccessTable(np.array([0.5, 8]), np.array([4, 4]), ptr)

    def test_gather_shared_table_by_identity(self):
        table = table_of([[(0, 4)], [(4, 4)], []])
        views = {r: table.rank(r) for r in (2, 0, 1)}  # arrival order is free
        assert AccessTable.gather(views, 3) is table

    def test_gather_packs_anything_else(self):
        table = table_of([[(0, 4)], [(4, 4)], []])
        swapped = {0: table.rank(1), 1: table.rank(0), 2: table.rank(2)}
        packed = AccessTable.gather(swapped, 3)
        assert packed is not table
        assert packed.offsets.tolist() == [4, 0]
        assert packed.rank_ptr.tolist() == [0, 1, 2, 2]
        mixed = {0: table.rank(0), 1: access_of((4, 4))}  # rank 2 never arrived
        packed = AccessTable.gather(mixed, 3)
        assert packed is not table
        assert packed.offsets.tolist() == table.offsets.tolist()
        assert packed.rank_ptr.tolist() == table.rank_ptr.tolist()
        assert AccessTable.gather({}, 2).total_bytes == 0

    def test_digest_is_translation_invariant(self):
        ranks = [[(0, 4), (16, 4)], [], [(4, 8)]]
        shifted = [[(o + 4096, n) for o, n in pairs] for pairs in ranks]
        assert table_of(ranks).digest == table_of(shifted).digest
        other_split = [[(0, 4)], [(16, 4)], [(4, 8)]]
        assert table_of(ranks).digest != table_of(other_split).digest
        longer = [[(0, 4), (16, 5)], [], [(4, 8)]]
        assert table_of(ranks).digest != table_of(longer).digest

    def test_coverage_matches_merge(self):
        ranks = [[(0, 10), (30, 5)], [(5, 10), (40, 5)], []]
        table = table_of(ranks)
        starts, ends = merge_extent_arrays(
            [np.array([p[0] for p in r]) for r in ranks],
            [np.array([p[1] for p in r]) for r in ranks],
        )
        assert table.coverage[0].tolist() == starts.tolist() == [0, 30, 40]
        assert table.coverage[1].tolist() == ends.tolist() == [15, 35, 45]


def interleaved_loop(pairs):
    """The scalar ROMIO check the vectorised one replaced."""
    prev_end = None
    for st, end in pairs:
        if end < st:
            continue
        if prev_end is not None and st <= prev_end:
            return True
        prev_end = end if prev_end is None else max(prev_end, end)
    return False


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 40), st.integers(-1, 40)), max_size=8))
def test_ranks_interleaved_matches_loop(pairs):
    arr = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    assert ranks_interleaved(arr[:, 0], arr[:, 1]) == interleaved_loop(pairs)


def sums_oracle(accesses, bounds):
    """Per-rank, per-window brute force: bytes_in_window and a start count."""
    nwin, nb1 = bounds.shape
    nbytes = np.zeros((len(accesses), nwin, nb1 - 1), dtype=np.int64)
    starts = np.zeros_like(nbytes)
    for r, acc in enumerate(accesses):
        for w in range(nwin):
            for k in range(nb1 - 1):
                lo, hi = int(bounds[w, k]), int(bounds[w, k + 1])
                nbytes[r, w, k] = acc.bytes_in_window(lo, hi)
                starts[r, w, k] = sum(lo <= int(o) < hi for o in acc.offsets)
    return nbytes, starts


window_rows = st.lists(
    st.lists(st.integers(0, 600), min_size=1, max_size=6).map(sorted),
    min_size=1,
    max_size=4,
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(extent_lists, min_size=1, max_size=7),
    window_rows,
    st.sampled_from([1, 4, 1 << 16]),
    st.sampled_from([1, 16, 1 << 16]),
    st.booleans(),
)
def test_window_sums_match_bruteforce(
    rank_lists, rows, block_extents, block_queries, shared
):
    """Batched sends/pieces equal the per-rank oracle: empty ranks, unequal
    extent counts, extents straddling bounds, zero-size windows (repeated
    bounds), rank-block boundaries inside the table, both gather paths."""
    width = max(len(row) for row in rows)
    padded = [row + [row[-1]] * (width - len(row)) for row in rows]
    bounds = np.array(padded, dtype=np.int64)
    ranks = [dedupe(pairs) for pairs in rank_lists]
    if shared:
        table = table_of(ranks)
        accesses = [table.rank(r) for r in range(len(ranks))]
        assert AccessTable.gather(dict(enumerate(accesses)), len(ranks)) is table
    else:
        accesses = [access_of(*pairs) for pairs in ranks]
        table = AccessTable.gather(dict(enumerate(accesses)), len(ranks))
    mod = repro.access
    saved = mod._BLOCK_EXTENTS, mod._BLOCK_QUERIES
    mod._BLOCK_EXTENTS, mod._BLOCK_QUERIES = block_extents, block_queries
    try:
        nbytes, starts = table.window_sums(bounds)
    finally:
        mod._BLOCK_EXTENTS, mod._BLOCK_QUERIES = saved
    want_bytes, want_starts = sums_oracle(accesses, bounds)
    assert np.array_equal(nbytes, want_bytes)
    assert np.array_equal(starts, want_starts)


def test_window_sums_edge_shapes():
    table = table_of([[(0, 4)], []])
    nbytes, starts = table.window_sums(np.zeros((3, 1), dtype=np.int64))
    assert nbytes.shape == starts.shape == (2, 3, 0)
    nbytes, _ = table_of([[], []]).window_sums(np.array([[0, 8]]))
    assert nbytes.tolist() == [[[0]], [[0]]]
    with pytest.raises(ValueError, match="negative window bound -1"):
        table.window_sums(np.array([[-1, 4]]))
    with pytest.raises(ValueError, match="bounds must be 2-D"):
        table.window_sums(np.array([0, 4]))


def test_window_sums_far_offsets_do_not_overflow():
    """Rank-keyed search must stay exact when offsets approach 2**62."""
    far = 1 << 61
    ranks = [[(far, 8), (far + 16, 8)], [(far + 8, 8)], [(0, 4)]]
    table = table_of(ranks)
    bounds = np.array([[0, far + 4, far + 20, far + 24]], dtype=np.int64)
    nbytes, starts = table.window_sums(bounds)
    want = sums_oracle([table.rank(r) for r in range(3)], bounds)
    assert np.array_equal(nbytes, want[0]) and np.array_equal(starts, want[1])
