"""Byte-addressable NVMM write-ahead log (the ``cache_kind=nvmm`` backend).

In extent mode the aggregator cache is a sparse file on the scratch SSD;
in NVMM mode it is a log on DIMM-attached persistent memory: every cached
extent is *appended* as one CRC-protected record (header + payload) and
made durable by a persistence barrier (CLWB + SFENCE drain).  There is no
file system underneath — no namespace, no extent tree, no page cache — so a
cache write costs the record store plus one barrier, and read-back is a
load at memory speed from the mapped region.

Record semantics:

* A record is **durable** only once its persistence barrier completes;
  ``CacheState.bytes_cached`` is counted once the ``append`` chain
  completes, so acknowledged bytes and durable bytes are the same set.
* A **torn** record (``nvmm_torn_write`` fault: the power-glitch model of
  a store stream stopping mid-record) is physically present in the log
  with a bad CRC, was never acknowledged to the writer, and is skipped by
  both read-back and recovery replay.  The cache layer retries the append,
  so the same logical extent eventually lands as a later durable record —
  replay stays idempotent because :meth:`gather` overlays records in
  append order.
* Recovery after an aggregator crash replays ``cached - synced`` ranges by
  reading them back from the log exactly like the sync thread does; torn
  records contribute nothing (their bytes never entered ``cached``), so
  byte conservation closes without special-casing.

Capacity is accounted against the node's NVMM region
(``NVMMDevice.log_used``, headers included) and released when the log is
discarded; exhaustion raises the same :class:`~repro.localfs.ext4.ENOSPC`
the extent backend raises, so the driver's degrade-to-direct-write path is
backend-agnostic.

Calibration sources: NVCache (arXiv:2105.10397) for the WAL-on-NVMM cache
architecture; see docs/DEVICES.md for the device parameter table.

Paper correspondence: §III — the cache layer the paper builds on an SSD
scratch partition, re-based onto the byte-addressable NVM devices its
outlook anticipates (ROADMAP item 4).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from repro.faults.errors import DeviceLostError
from repro.localfs.ext4 import ENOSPC
from repro.sim.core import Event, SimError, settle


@dataclass
class WALRecord:
    """One appended cache extent (header + payload) in the log."""

    seq: int
    offset: int  # global-file offset of the extent
    nbytes: int
    data: Optional[np.ndarray]  # payload (None for virtual runs)
    durable: bool = False  # persistence barrier completed (CRC valid)
    torn: bool = False  # partial store, bad CRC: skipped by read/replay


class NVMMWriteLog:
    """One aggregator's write-ahead log on its node's NVMM region."""

    _ids = itertools.count(1)

    def __init__(self, machine, node_id: int, name: str):
        self.machine = machine
        self.node_id = node_id
        self.name = name
        self.log_id = next(NVMMWriteLog._ids)
        self.device = machine.nodes[node_id].nvmm
        self.sim = self.device.sim
        self.header = self.device.nvmm.record_header
        self.records: list[WALRecord] = []
        self._seq = itertools.count(0)
        self._tail = 0  # append point within the log region
        self.reserved = 0  # bytes charged against device.log_used
        # Accounting.
        self.durable_records = 0
        self.torn_records = 0
        self.bytes_appended = 0  # payload bytes made durable
        self.torn_bytes = 0  # payload bytes lost to torn appends (retried)
        self._injector = machine.faults

    def _check_writable(self) -> None:
        if self.device.read_only:
            raise DeviceLostError(
                f"NVMM region on node {self.node_id} is read-only"
            )

    # -- the append path ----------------------------------------------------------
    def append(self, offset: int, nbytes: int, data: Optional[np.ndarray]) -> Event:
        """Append one record and drain the persistence barrier: a callback
        chain whose Event fires inline once the record is durable (a full or
        read-only region raises here; abandoned, it takes no later step).

        The Event fails with :class:`~repro.faults.errors.TornWriteError`
        when an armed ``nvmm_torn_write`` window tears the record: roughly
        half the payload lands (charged at device speed), the torn record
        stays in the log unacknowledged, and the caller retries the append.
        A negative, NaN or infinite ``nbytes`` raises a :class:`SimError`
        naming it before anything is charged.
        """
        if not 0 <= nbytes < math.inf:
            raise SimError(f"{self.name}: append nbytes must be finite and >= 0, got {nbytes!r}")
        self._check_writable()
        dev = self.device
        total = self.header + nbytes
        if dev.log_used + total > dev.capacity_bytes:
            raise ENOSPC(
                f"NVMM log region full on node {self.node_id}: "
                f"{dev.log_used + total} > {dev.capacity_bytes}"
            )
        done = Event(self.sim, name="wal-append")
        inj = self._injector
        # A torn record: the store stream stops mid-record.  The slot is
        # consumed (a real log cannot reuse it without breaking the CRC
        # chain walk) but only part of the payload was transferred, and no
        # barrier ran — the writer never sees an acknowledgement.
        torn = inj is not None and inj.wal_tear_decision(self.node_id, offset, nbytes)
        dev.log_used += total
        self.reserved += total
        landed = partial(self._landed, torn, offset, nbytes, data, done)
        dev.write_flat(self._tail, self.header + nbytes // 2 if torn else total, landed, done)
        return done

    def _landed(self, torn: bool, offset: int, nbytes: int, data, done: Event) -> None:
        self._tail += self.header + nbytes
        if torn:
            self.records.append(WALRecord(next(self._seq), offset, nbytes, None, torn=True))
            self.torn_records += 1
            self.torn_bytes += nbytes
            done.abandon = None
            error = self._injector.torn_write_error(self.node_id, offset, nbytes)
            done._fire_inline(error, ok=False)
            return
        done.abandon = settle
        durable = partial(self._durable, offset, nbytes, data, done)
        self.sim.call_later(self.device.persist_barrier, durable)

    def _durable(self, offset: int, nbytes: int, data, done: Event) -> None:
        if done._triggered:
            return
        payload = None
        if data is not None:
            arr = np.asarray(data, dtype=np.uint8)
            payload = arr.copy() if len(arr) == nbytes else arr[:nbytes].copy()
        self.records.append(WALRecord(next(self._seq), offset, nbytes, payload, durable=True))
        self.durable_records += 1
        self.bytes_appended += nbytes
        done.abandon = None
        done._fire_inline()

    # -- read-back (sync thread / recovery replay) --------------------------------
    def read_flat(self, pos: int, blen: int, on_done, done: Event) -> None:
        """Read ``[pos, pos+blen)`` back where the region wraps it to
        (``StorageDevice.read_flat``'s contract); :meth:`gather` has the bytes."""
        self.device.read_flat(pos % self.device.capacity_bytes, blen, on_done, done)

    def gather(self, pos: int, blen: int) -> Optional[np.ndarray]:
        """Overlay durable records (append order) over ``[pos, pos+blen)``."""
        out: Optional[np.ndarray] = None
        end = pos + blen
        for rec in self.records:
            if not rec.durable or rec.data is None:
                continue
            lo = max(pos, rec.offset)
            hi = min(end, rec.offset + rec.nbytes)
            if lo < hi:
                if out is None:
                    out = np.zeros(blen, dtype=np.uint8)
                out[lo - pos : hi - pos] = rec.data[lo - rec.offset : hi - rec.offset]
        return out

    # -- lifecycle ---------------------------------------------------------------
    def discard(self) -> None:
        """Truncate the log and release its NVMM region bytes."""
        self.device.log_used -= self.reserved
        self.reserved = 0
        self._tail = 0
        self.records.clear()
