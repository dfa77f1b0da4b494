import numpy as np
import pytest

from repro.config import small_testbed
from repro.machine import Machine
from repro.pfs.filesystem import PFSFile
from repro.pfs.layout import StripeLayout


@pytest.fixture
def f():
    return PFSFile("/g/x", StripeLayout(4096, 4))


class TestRecordWrite:
    def test_size_and_persisted(self, f):
        f.record_write(100, 50, None)
        assert f.size == 150
        assert f.persisted.covers(100, 150)
        assert not f.persisted.covers(0, 100)

    def test_virtual_write_keeps_no_data(self, f):
        f.record_write(0, 10, None)
        assert f.read_back(0, 10) is None

    def test_payload_length_checked(self, f):
        with pytest.raises(Exception):
            f.record_write(0, 10, np.zeros(5, dtype=np.uint8))

    def test_overlapping_writes_overlay_in_time_order(self, f):
        """Regression: overlapping extents must apply last-writer-wins by
        WRITE TIME, not by offset (the sieve RMW lost-update bug)."""
        # writer B at a *lower* offset writes after writer A
        f.record_write(100, 100, np.full(100, 7, dtype=np.uint8))
        f.record_write(50, 100, np.full(100, 9, dtype=np.uint8))
        img = f.data_image()
        assert np.all(img[50:150] == 9)
        assert np.all(img[150:200] == 7)
        # and the reverse order gives the reverse outcome
        f2 = PFSFile("/g/y", StripeLayout(4096, 4))
        f2.record_write(50, 100, np.full(100, 9, dtype=np.uint8))
        f2.record_write(100, 100, np.full(100, 7, dtype=np.uint8))
        img2 = f2.data_image()
        assert np.all(img2[100:200] == 7)
        assert np.all(img2[50:100] == 9)

    def test_read_back_partial_overlap(self, f):
        f.record_write(10, 10, np.arange(10, dtype=np.uint8))
        got = f.read_back(5, 10)
        assert np.all(got[:5] == 0)
        assert list(got[5:]) == [0, 1, 2, 3, 4]


class TestPersistedTracking:
    def test_disjoint_extents_counted(self, f):
        f.record_write(0, 10, None)
        f.record_write(100, 10, None)
        assert f.persisted.total == 20

    def test_overlap_not_double_counted(self, f):
        f.record_write(0, 100, None)
        f.record_write(50, 100, None)
        assert f.persisted.total == 150


class TestCreateLayout:
    """``create`` takes None for "the default" and refuses a bad value,
    zero included, instead of falling back to the default."""

    @pytest.fixture
    def pfs(self):
        return Machine(small_testbed()).pfs

    def test_none_is_the_default(self, pfs):
        layout = pfs.create("/g/a").layout
        cfg = pfs.cfg
        assert (layout.stripe_size, layout.stripe_count) == (
            cfg.default_stripe_size,
            cfg.default_stripe_count,
        )

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"stripe_size": 0}, "stripe_size=0: must be positive"),
            ({"stripe_count": 0}, "stripe_count=0: must be positive"),
            ({"stripe_size": 1.5}, "stripe_size=1.5: must be an integer"),
            ({"stripe_count": 2.5}, "stripe_count=2.5: must be an integer"),
        ],
    )
    def test_bad_layout_refused(self, pfs, kwargs, field):
        with pytest.raises(ValueError, match=field):
            pfs.create("/g/a", **kwargs)
        assert not pfs.exists("/g/a")
