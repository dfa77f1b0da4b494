"""Integrity checked against the access tables, with no reference run.

``verify_files`` names each way a file can disagree with what its workload
wrote; the per-call conservation check in ``ext2ph`` catches a plan that
drops bytes while the run is still going.  Both must catch PR 14's bug (the
two-phase memo restoring coverage *ends* untranslated on a translated hit),
each on its own.
"""

import numpy as np
import pytest

from repro.chaos.invariants import verify_files
from repro.config import small_testbed
from repro.experiments.faultsweep import (
    fault_matrix_specs,
    reference_memo,
    run_fault_experiment,
)
from repro.machine import Machine
from repro.payload import payload_bytes
from repro.romio import ext2ph
from repro.sim.core import SimError

KEY = 0x5EED
PATH = "/g/v"
COVERAGE = (np.array([0, 4096]), np.array([1000, 6000]))  # two runs, a hole between


def check(*writes, size=None):
    """A file written with ``(offset, nbytes, data)`` triples, checked."""
    pfs = Machine(small_testbed()).pfs
    f = pfs.create(PATH)
    for offset, nbytes, data in writes:
        f.record_write(offset, nbytes, data)
    if size is not None:
        f.size = size
    return verify_files(pfs, {PATH: COVERAGE}, lambda path: KEY)


def payload(offset, nbytes):
    return offset, nbytes, payload_bytes(KEY, offset, nbytes)


class TestMessages:
    def test_whole_files_are_clean_with_or_without_bytes(self):
        assert check(payload(0, 1000), payload(4096, 1904)) == []
        assert check((0, 1000, None), (4096, 1904, None)) == []

    def test_a_missing_file(self):
        pfs = Machine(small_testbed()).pfs
        missing = verify_files(pfs, {PATH: COVERAGE}, lambda path: KEY)
        assert missing == [f"{PATH}: missing file"]

    def test_a_missing_run(self):
        assert check(payload(0, 1000), payload(4096, 1000), payload(5500, 500)) == [
            f"{PATH}: missing run [5096, 5500)"
        ]

    def test_an_extra_run(self):
        assert check(payload(0, 1000), payload(2048, 8), payload(4096, 1904)) == [
            f"{PATH}: extra run [2048, 2056)"
        ]

    def test_a_wrong_size(self):
        assert check(payload(0, 1000), payload(4096, 1904), size=8192) == [
            f"{PATH}: size 8192 != 6000 covered"
        ]

    def test_a_bad_byte_on_the_flow_path(self):
        _, _, data = payload(4096, 1904)
        data = data.copy()
        data[77] ^= 1
        assert check(payload(0, 1000), (4096, 1904, data)) == [
            f"{PATH}: stored byte at offset {4096 + 77} is not its payload"
        ]

    def test_a_later_write_overrides_an_earlier_one(self):
        """Stored bytes are read in write order: the last writer wins."""
        zeros = np.zeros(1000, dtype=np.uint8)
        assert check((0, 1000, zeros), payload(0, 1000), payload(4096, 1904)) == []
        assert check(payload(0, 1000), (0, 1000, zeros), payload(4096, 1904)) == [
            f"{PATH}: stored byte at offset 0 is not its payload"
        ]


@pytest.fixture
def pr14_bug(monkeypatch):
    """Plant PR 14's bug: a memo hit restores coverage ends untranslated."""
    memo, prepare = ext2ph.model_memo, ext2ph._prepare_model

    def restore_ends_untranslated(fd, call):
        key = ext2ph._model_memo_key(fd, call, fd.hints.cb_buffer_size)
        hit = key is not None and memo.get(key) is not None
        prepare(fd, call)
        if hit:
            starts, ends = call.merged_cov
            call.merged_cov = (starts, ends - call.min_st)

    monkeypatch.setattr(ext2ph, "_prepare_model", restore_ends_untranslated)
    memo.clear()
    reference_memo.clear()
    yield
    memo.clear()
    reference_memo.clear()


# IOR, 2 segments of 512 KiB: the second file's second segment hits the
# first file's plan, translated by 512 KiB.
(IOR_TWO_SEGMENTS,) = fault_matrix_specs(scenarios=("baseline",), scale=1.0)


def test_the_conservation_check_stops_a_translated_memo_hit(pr14_bug):
    path = "/global/fault_ior_baseline_enabled_1"
    message = (
        f"{path}: collective call 1 handed 0 bytes to write_contig, "
        "but its ranks cover 524288"
    )
    with pytest.raises(SimError, match=message):
        run_fault_experiment(IOR_TWO_SEGMENTS)


def test_verify_files_names_the_run_a_translated_memo_hit_drops(pr14_bug, monkeypatch):
    monkeypatch.setattr(ext2ph, "_check_conservation", lambda fd, call: None)
    result = run_fault_experiment(IOR_TWO_SEGMENTS)  # its own reference: one run
    assert not result.integrity_ok
    path = "/global/fault_ior_baseline_enabled_1"  # the first file planned afresh
    assert result.integrity_violations == [
        f"{path}: missing run [524288, 1048576)",
        f"{path}: size 524288 != 1048576 covered",
    ]
