"""The payload function: every byte a keyed mix of where it belongs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.payload import gather_payload, payload_bytes, payload_key

MASK = (1 << 64) - 1


def splitmix64(key: int, word: int) -> int:
    """The word mix in plain Python integers: the reference."""
    z = (word * 0x9E3779B97F4A7C15 + key) & MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def reference_bytes(key: int, offset: int, nbytes: int) -> bytes:
    first, stop = offset // 8, -(-(offset + nbytes) // 8)
    words = b"".join(splitmix64(key, w).to_bytes(8, "little") for w in range(first, stop))
    return words[offset - 8 * first :][:nbytes]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, MASK), st.integers(0, 1 << 40), st.integers(0, 100))
def test_every_word_is_the_keyed_mix_of_its_index(key, offset, nbytes):
    got = payload_bytes(key, offset, nbytes)
    assert got.dtype == np.uint8 and len(got) == nbytes
    assert got.tobytes() == reference_bytes(key, offset, nbytes)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 4096), st.integers(0, 4096), st.integers(0, 4096))
def test_a_range_is_the_slice_of_any_range_around_it(lo, length, pad):
    """Unaligned bounds cut the same bytes out of the same words."""
    whole = payload_bytes(3, lo, length + pad)
    assert np.array_equal(payload_bytes(3, lo, length), whole[:length])
    assert np.array_equal(payload_bytes(3, lo + pad, length), payload_bytes(3, lo, length + pad)[pad:])


def test_gather_concatenates_the_extents_in_order():
    got = gather_payload(11, [100, 7, 4096], [5, 0, 13])
    want = np.concatenate([payload_bytes(11, 100, 5), payload_bytes(11, 4096, 13)])
    assert np.array_equal(got, want)
    assert gather_payload(11, [], []).dtype == np.uint8


def test_the_key_is_the_seed_and_the_path():
    key = payload_key(2016, "/global/out_0")
    assert key == payload_key(2016, "/global/out_0") and 0 <= key <= MASK
    others = {payload_key(2017, "/global/out_0"), payload_key(2016, "/global/out_1")}
    assert key not in others and len(others) == 2
    # different keys, different bytes at the same offset
    assert not np.array_equal(payload_bytes(key, 0, 64), payload_bytes(min(others), 0, 64))


def test_negative_bounds_are_refused():
    with pytest.raises(ValueError, match="negative offset -1"):
        payload_bytes(0, -1, 8)
    with pytest.raises(ValueError, match="length -8"):
        payload_bytes(0, 0, -8)
