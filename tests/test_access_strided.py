"""The structured table form against the CSR form it must equal.

``AccessTable.strided(bases, levels, length)`` keeps a file view as a
descriptor; ``AccessTable(offsets, lengths, rank_ptr)`` built from the
flattened extents is the oracle for everything a caller can ask: the
closed-form window sums and coverage, the derived per-rank vectors, and
every array of every view.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.access
from repro.access import AccessTable

CSR_ARRAYS = ("offsets", "lengths", "prefix", "rank_ptr", "ends")


@st.composite
def descriptors(draw):
    """``(bases, levels, length)``: 0-6 ranks, 0-3 levels whose strides equal
    or exceed the span below them, bases chained end to end, random, or piled
    onto a few multiples of the extent length (overlapping ranks)."""
    length = draw(st.integers(1, 9))
    levels, span = [], length
    for _ in range(draw(st.integers(0, 3))):  # innermost first
        count = draw(st.integers(1, 4))
        stride = span + draw(st.sampled_from([0, 0, 1, 3, 10]))
        levels.insert(0, (count, stride))
        span += (count - 1) * stride
    nranks = draw(st.integers(0, 6))
    kind = draw(st.sampled_from(["chained", "random", "overlapping"]))
    if kind == "chained":
        start = draw(st.integers(0, 20))
        bases = [start + r * span for r in range(nranks)]
    elif kind == "random":
        bases = draw(st.lists(st.integers(0, 200), min_size=nranks, max_size=nranks))
    else:
        picks = st.integers(0, 3)
        bases = [length * draw(picks) for _ in range(nranks)]
    return np.array(bases, dtype=np.int64), tuple(levels), length


def flattened(bases, levels, length):
    """The CSR oracle: a second descriptor's arrays through the array
    constructor, which validates, sorts and prefix-sums on its own."""
    flat = AccessTable.strided(bases, levels, length)
    return AccessTable(
        flat.offsets.copy(), np.array(flat.lengths), flat.rank_ptr.copy()
    )


def materialised(table):
    return [name for name in CSR_ARRAYS if name in vars(table)]


def same(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a, b))


@st.composite
def window_bounds(draw, reach):
    """Non-decreasing rows of unaligned bounds; repeats make empty windows."""
    width = draw(st.integers(1, 6))
    row = st.lists(st.integers(0, reach), min_size=width, max_size=width).map(sorted)
    return np.array(draw(st.lists(row, min_size=1, max_size=4)), dtype=np.int64)


@settings(max_examples=300, deadline=None)
@given(st.data(), descriptors(), st.sampled_from([1, 16, 1 << 14]))
def test_what_the_model_path_asks_equals_csr_and_flattens_nothing(
    data, descriptor, block_queries
):
    table, oracle = AccessTable.strided(*descriptor), flattened(*descriptor)
    bounds = data.draw(window_bounds(reach=oracle.max_end + 20))
    mod = repro.access
    saved, mod._BLOCK_QUERIES = mod._BLOCK_QUERIES, block_queries
    try:
        got = table.window_sums(bounds)
    finally:
        mod._BLOCK_QUERIES = saved
    assert same(got, oracle.window_sums(bounds))
    assert same(table.coverage, oracle.coverage)
    assert table.interleaved == oracle.interleaved
    assert same(
        (table.st_offsets, table.end_offsets), (oracle.st_offsets, oracle.end_offsets)
    )
    for name in ("min_st", "max_end", "total_bytes", "nranks", "max_rank_extents"):
        assert getattr(table, name) == getattr(oracle, name), name
    assert (len(table), table._ptr, table._bytes) == (
        len(oracle),
        oracle._ptr,
        oracle._bytes,
    )
    views = {r: table.rank(r) for r in range(table.nranks)}
    if table.nranks:  # no rank, no view to recognise the table by
        assert AccessTable.gather(views, table.nranks) is table
    assert [v.total_bytes for v in views.values()] == oracle._bytes
    table.digest
    assert materialised(table) == []
    assert not any(set(vars(view)) & set(CSR_ARRAYS) for view in views.values())


@settings(max_examples=200, deadline=None)
@given(st.data(), descriptors())
def test_every_view_equals_the_csr_view(data, descriptor):
    table, oracle = AccessTable.strided(*descriptor), flattened(*descriptor)
    lo = data.draw(st.integers(0, oracle.max_end + 10))
    hi = lo + data.draw(st.integers(0, 60))
    for rank in range(table.nranks):
        view, ref = table.rank(rank), oracle.rank(rank)
        for name in ("offsets", "lengths", "prefix", "ends"):
            assert np.array_equal(getattr(view, name), getattr(ref, name)), name
            assert not getattr(view, name).flags.writeable, name
        assert (len(view), view.start_offset, view.end_offset) == (
            len(ref),
            ref.start_offset,
            ref.end_offset,
        )
        assert view.bytes_in_window(lo, hi) == ref.bytes_in_window(lo, hi)
        got, want = view.slice_window(lo, hi), ref.slice_window(lo, hi)
        for name in ("offsets", "lengths"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert (got.nbytes, got.count) == (want.nbytes, want.count)
    # The views built their own arrays; the table is still a descriptor ...
    assert materialised(table) == []
    # ... until its flattened form is read, which is the oracle's, read-only.
    for name in CSR_ARRAYS:
        assert np.array_equal(getattr(table, name), getattr(oracle, name)), name
        assert not getattr(table, name).flags.writeable, name
    assert materialised(table) == list(CSR_ARRAYS)


def anchored(bases):
    """Bases relative to the first rank's: equal for translated descriptors."""
    return (bases - bases[:1].sum()).tolist()


@settings(max_examples=200, deadline=None)
@given(descriptors(), descriptors(), st.integers(1, 1 << 40))
def test_digest_names_the_descriptor_up_to_translation(one, other, shift):
    bases, levels, length = one
    table = AccessTable.strided(bases, levels, length)
    assert AccessTable.strided(bases.copy(), levels, length).digest == table.digest
    assert AccessTable.strided(bases + shift, levels, length).digest == table.digest
    same_descriptor = (
        levels == other[1]
        and length == other[2]
        and len(bases) == len(other[0])
        and anchored(bases) == anchored(other[0])
    )
    assert (AccessTable.strided(*other).digest == table.digest) == same_descriptor
    assert materialised(table) == []


def test_a_csr_table_of_the_same_extents_has_another_digest():
    """The digest is a memo key: it fingerprints what the table holds."""
    table = AccessTable.strided(np.array([0, 64]), ((2, 16),), 8)
    assert flattened(np.array([0, 64]), ((2, 16),), 8).digest != table.digest


def test_gather_packs_views_of_a_descriptor_without_flattening_it():
    table = AccessTable.strided(np.array([0, 8, 16]), ((2, 64),), 8)
    swapped = {0: table.rank(1), 1: table.rank(0), 2: table.rank(2)}
    packed = AccessTable.gather(swapped, 3)
    assert packed is not table and packed.levels is None
    assert packed.offsets.tolist() == [8, 72, 0, 64, 16, 80]
    assert materialised(table) == []


class TestBadDescriptorsFailByName:
    @pytest.mark.parametrize(
        "bases, levels, length, message",
        [
            ([0.0, 8.0], (), 8, "strided: bases must have an integer dtype, got float64"),
            ([[0, 8]], (), 8, r"strided: bases must be 1-D, got shape \(1, 2\)"),
            ([0, -8], (), 8, "strided: negative base -8"),
            ([0, 8], (), 0, "strided: length must be positive, got 0"),
            ([0, 8], ((2, 64), (0, 16)), 8, "strided: level 1 count 0 <= 0"),
            (
                [0, 8],
                ((2, 4096), (4, 1024)),
                2048,
                "strided: level 1 stride 1024 is smaller than the 2048 bytes one "
                "of its items spans",
            ),
            (
                [0, 8],
                ((2, 4095), (2, 2048)),
                2048,
                "strided: level 0 stride 4095 is smaller than the 4096 bytes one "
                "of its items spans",
            ),
        ],
    )
    def test_descriptor(self, bases, levels, length, message):
        with pytest.raises(ValueError, match=message):
            AccessTable.strided(np.array(bases), levels, length)

    @pytest.mark.parametrize(
        "table",
        [
            AccessTable.strided(np.array([0, 8]), ((2, 32),), 8),
            flattened(np.array([0, 8]), ((2, 32),), 8),
        ],
        ids=["strided", "csr"],
    )
    def test_a_row_of_bounds_that_decreases(self, table):
        """Used to return negative byte counts silently."""
        bounds = np.array([[0, 16, 48], [0, 40, 36]])
        with pytest.raises(ValueError, match="bounds row 1 decreases from 40 to 36"):
            table.window_sums(bounds)
        with pytest.raises(ValueError, match="negative window bound -1"):
            table.window_sums(np.array([[-1, 4]]))


def test_window_sums_far_offsets_stay_exact():
    far = 1 << 61
    bases = np.array([far, far + 8, 0], dtype=np.int64)
    table, oracle = (
        AccessTable.strided(bases, ((2, 64),), 8),
        flattened(bases, ((2, 64),), 8),
    )
    bounds = np.array([[0, far + 4, far + 70, far + 80]], dtype=np.int64)
    assert same(table.window_sums(bounds), oracle.window_sums(bounds))
