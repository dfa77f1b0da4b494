"""The node-local scratch file system (``/scratch`` in the paper).

Models exactly what the E10 cache layer needs from ext4:

* a namespace (create/open/unlink) with capacity accounting against the
  30 GB partition (a write past it raises ENOSPC),
* buffered writes through the node's page cache with dirty throttling,
* reads at SSD read speed (the sync thread's read-back path), and
* ``fsync`` draining dirty pages.

Data contents are stored sparsely per file as ``(offset, ndarray)`` extents
when real payloads are supplied, so tests can verify cache-file contents
byte-for-byte; virtual (payload-free) writes only account sizes.

Paper correspondence: §IV-A ``/scratch`` behaviour — page-cache
absorption then device-speed writeback, as the cache layer (§III)
experiences it.
"""

from __future__ import annotations

import itertools
from typing import Optional

import numpy as np

from repro.faults.errors import DeviceLostError
from repro.hw.node import ComputeNode
from repro.intervals import IntervalSet
from repro.sim.core import Event, SimError, settle


class ENOSPC(OSError):
    """Local partition out of space."""


class LocalFile:
    """An open file on the local FS."""

    _ids = itertools.count(1)

    def __init__(self, fs: "LocalFileSystem", path: str):
        self.fs = fs
        self.path = path
        self.file_id = next(LocalFile._ids)
        self.size = 0
        # Space is charged per covered byte range (files may be sparse: the
        # E10 cache stores extents at their global-file offsets).
        self.space = IntervalSet()
        # Verification extents in write order (overlaps overlay temporally).
        self.extents: list[tuple[int, np.ndarray]] = []
        self.open_count = 1
        self.unlinked = False

    @property
    def allocated(self) -> int:
        return self.space.total

    def data_image(self) -> np.ndarray:
        """Materialise the file contents (zero-filled holes) — test helper."""
        img = np.zeros(self.size, dtype=np.uint8)
        for off, arr in self.extents:
            img[off : off + len(arr)] = arr
        return img


class LocalFileSystem:
    """One node's scratch FS: namespace + capacity + timed I/O paths."""

    def __init__(self, node: ComputeNode):
        self.node = node
        self.sim = node.sim
        self.capacity = node.ssd.capacity_bytes
        self.used = 0
        self._files: dict[str, LocalFile] = {}

    @property
    def writable(self) -> bool:
        """False once the backing SSD has failed read-only (EROFS): no new
        data or namespace mutations, but existing blocks stay readable."""
        return not self.node.ssd.read_only

    def _check_writable(self) -> None:
        if self.node.ssd.read_only:
            raise DeviceLostError(
                f"scratch device on node {self.node.node_id} is read-only (EROFS)"
            )

    # -- namespace -------------------------------------------------------------
    def open(self, path: str, create: bool = True) -> LocalFile:
        f = self._files.get(path)
        if f is None:
            if not create:
                raise FileNotFoundError(path)
            f = LocalFile(self, path)
            self._files[path] = f
        else:
            f.open_count += 1
        return f

    def exists(self, path: str) -> bool:
        return path in self._files

    def close(self, f: LocalFile) -> None:
        f.open_count -= 1
        if f.open_count <= 0 and f.unlinked:
            self._reclaim(f)

    def unlink(self, path: str) -> None:
        f = self._files.get(path)
        if f is None:
            raise FileNotFoundError(path)
        f.unlinked = True
        del self._files[path]
        if f.open_count <= 0:
            self._reclaim(f)

    def _reclaim(self, f: LocalFile) -> None:
        self.used -= f.space.total
        f.space.clear()
        f.extents.clear()

    # -- space ------------------------------------------------------------------
    def _charge_range(self, f: LocalFile, start: int, end: int) -> int:
        """Charge the uncovered part of ``[start, end)``; returns new bytes."""
        grow = f.space.gap_bytes(start, end)
        if grow == 0:
            return 0
        if self.used + grow > self.capacity:
            raise ENOSPC(
                f"scratch partition full on node {self.node.node_id}: "
                f"{self.used + grow} > {self.capacity}"
            )
        self.used += grow
        f.space.add(start, end)
        return grow

    # -- I/O -------------------------------------------------------------------
    def write(
        self, f: LocalFile, offset: int, nbytes: int, data: Optional[np.ndarray] = None
    ) -> Optional[Event]:
        """Buffered write (page cache, dirty throttling).

        The checks and the space charge run at call time (a full or
        read-only partition raises here); what follows is the page cache's
        chain, whose Event is returned (None for no bytes).
        """
        if nbytes < 0:
            raise SimError("negative write size")
        self._check_writable()
        end = offset + nbytes
        self._charge_range(f, offset, end)
        if data is not None:
            arr = np.asarray(data, dtype=np.uint8)
            if len(arr) != nbytes:
                raise SimError(f"payload length {len(arr)} != nbytes {nbytes}")
            f.extents.append((offset, arr.copy()))
        f.size = max(f.size, end)
        return self.node.page_cache.buffered_write(f.file_id, nbytes, offset=offset)

    def read_split(self, f: LocalFile, offset: int, nbytes: int) -> tuple[int, int]:
        """``(cached, uncached)``: the bytes of a read served from the page
        cache at memory speed (the file's dirty fraction of them — exact for
        the sync thread's sequential read-back) and those off the SSD."""
        if offset + nbytes > f.size and not f.extents and f.size == 0:
            raise SimError(f"read past EOF of empty file {f.path}")
        dirty = self.node.page_cache.dirty_of(f.file_id)
        frac_cached = min(1.0, dirty / max(1, f.space.total or f.size))
        cached = int(nbytes * frac_cached)
        return cached, nbytes - cached

    def read_flat(self, f: LocalFile, offset: int, nbytes: int, on_done, done: Event) -> None:
        """Read ``[offset, offset + nbytes)`` (:meth:`read_split`): the
        page-cached part at memory speed, then the rest off the SSD, with
        ``StorageDevice.read_flat``'s contract; :meth:`gather` has the bytes.
        Requires ``nbytes > 0``."""
        cached, uncached = self.read_split(f, offset, nbytes)
        if not cached and not uncached:
            raise SimError("read_flat requires nbytes > 0")
        ssd = self.node.ssd
        if not cached:
            ssd.read_flat(offset, uncached, on_done, done)
            return

        def _copied():
            if done._triggered:
                return
            if uncached:
                ssd.read_flat(offset + cached, uncached, on_done, done)
            else:
                on_done(None)

        done.abandon = settle
        self.sim.call_later(cached / self.node.config.ram.memcpy_bw, _copied)

    def fsync(self, f: LocalFile):
        return self.node.page_cache.fsync(f.file_id)

    # -- data assembly (verification support) ------------------------------------
    def gather(self, f: LocalFile, offset: int, nbytes: int) -> Optional[np.ndarray]:
        if not f.extents:
            return None
        out = np.zeros(nbytes, dtype=np.uint8)
        end = offset + nbytes
        hit = False
        for ext_off, arr in f.extents:
            ext_end = ext_off + len(arr)
            lo = max(offset, ext_off)
            hi = min(end, ext_end)
            if lo < hi:
                out[lo - offset : hi - offset] = arr[lo - ext_off : hi - ext_off]
                hit = True
        return out if hit else None
