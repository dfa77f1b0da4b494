import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pfs.layout import StripeLayout
from repro.units import MiB


class TestBasics:
    def test_invalid_params(self):
        with pytest.raises(ValueError):
            StripeLayout(0, 4)
        with pytest.raises(ValueError):
            StripeLayout(4 * MiB, 0)

    @pytest.mark.parametrize(
        "size, count, field",
        [
            (1.5, 4, "stripe_size"),
            (4 * MiB, 2.5, "stripe_count"),
            (True, 4, "stripe_size"),
        ],
    )
    def test_non_integer_params(self, size, count, field):
        with pytest.raises(ValueError, match=rf"{field}=.*: must be an integer"):
            StripeLayout(size, count)

    def test_stripe_of(self):
        lay = StripeLayout(100, 4)
        assert lay.stripe_of(0) == 0
        assert lay.stripe_of(99) == 0
        assert lay.stripe_of(100) == 1

    def test_target_round_robin(self):
        lay = StripeLayout(100, 4)
        assert [lay.target_of(i * 100) for i in range(8)] == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_first_target_rotation(self):
        lay = StripeLayout(100, 4, first_target=2)
        assert [lay.target_of(i * 100) for i in range(4)] == [2, 3, 0, 1]

    def test_target_offset_rows(self):
        lay = StripeLayout(100, 4)
        # stripe 4 is the second row on target 0.
        assert lay.target_offset_of(400) == 100
        assert lay.target_offset_of(450) == 150

    def test_align(self):
        lay = StripeLayout(100, 4)
        assert lay.align_down(250) == 200
        assert lay.align_up(250) == 300
        assert lay.align_up(300) == 300

    def test_stripes_covered(self):
        lay = StripeLayout(100, 4)
        assert list(lay.stripes_covered(50, 200)) == [0, 1, 2]
        assert list(lay.stripes_covered(0, 0)) == []


class TestChunks:
    def test_single_stripe(self):
        lay = StripeLayout(100, 4)
        chunks = list(lay.chunks(20, 50))
        assert len(chunks) == 1
        assert chunks[0].target == 0
        assert chunks[0].target_offset == 20
        assert chunks[0].length == 50

    def test_boundary_split(self):
        lay = StripeLayout(100, 4)
        chunks = list(lay.chunks(50, 100))
        assert [(c.target, c.length) for c in chunks] == [(0, 50), (1, 50)]

    def test_full_row(self):
        lay = StripeLayout(100, 4)
        chunks = list(lay.chunks(0, 400))
        assert [c.target for c in chunks] == [0, 1, 2, 3]
        assert all(c.length == 100 for c in chunks)


sizes = st.integers(1, 64)
counts = st.integers(1, 8)
extents = st.tuples(st.integers(0, 10_000), st.integers(0, 500))


@settings(max_examples=200, deadline=None)
@given(sizes, counts, extents)
def test_chunks_partition_exactly(stripe_size, stripe_count, extent):
    offset, length = extent
    lay = StripeLayout(stripe_size, stripe_count)
    chunks = list(lay.chunks(offset, length))
    # chunks tile the extent exactly, in order, without gaps
    assert sum(c.length for c in chunks) == length
    pos = offset
    for c in chunks:
        assert c.file_offset == pos
        assert 0 < c.length <= stripe_size
        assert c.target == lay.target_of(c.file_offset)
        assert c.target_offset == lay.target_offset_of(c.file_offset)
        pos += c.length


@settings(max_examples=200, deadline=None)
@given(sizes, counts, st.integers(0, 10_000))
def test_offset_mapping_bijective_within_target(stripe_size, stripe_count, offset):
    lay = StripeLayout(stripe_size, stripe_count)
    target = lay.target_of(offset)
    toff = lay.target_offset_of(offset)
    # Reconstruct the file offset from (target, target_offset).
    row, within = divmod(toff, stripe_size)
    stripe = row * stripe_count + (target - lay.first_target) % stripe_count
    assert stripe * stripe_size + within == offset
