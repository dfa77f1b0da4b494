"""Compute node: cores, RAM with page-cache accounting, and the local SSD.

The piece that matters for the paper is the node's *buffered write path*:
collective-buffer-sized writes into the local ext4 scratch partition land in
the page cache at memory-copy speed and are drained to the SSD by the
device's write-back chain (``StorageDevice.write_back``: one scheduled
call per device write while anything is dirty), exactly like Linux dirty
throttling.  A writer that would push dirty bytes past ``dirty_ratio * ram``
waits in a FIFO until a written chunk resumes it,
so sustained over-capacity writes degrade to device speed — and short
checkpoint bursts (the paper's workloads) complete at near-memory speed,
which is where the 10–20× aggregate cache bandwidth comes from.

Paper correspondence: §IV-A node configuration (8 ranks/node, page
cache, local SSD).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional

from repro.config import ClusterConfig
from repro.hw.devices import SSDDevice
from repro.hw.flash import NVMMDevice, create_node_ssd
from repro.sim.core import Event, Simulator, settle
from repro.units import MiB


class PageCache:
    """Dirty-page ledger + writeback chain for one node's scratch FS."""

    def __init__(
        self,
        sim: Simulator,
        device: SSDDevice,
        memcpy_bw: float,
        dirty_limit: int,
        writeback_chunk: int = 4 * MiB,
    ):
        self.sim = sim
        self.device = device
        self.memcpy_bw = float(memcpy_bw)
        self.dirty_limit = int(dirty_limit)
        self.writeback_chunk = int(writeback_chunk)
        self.dirty = 0
        self._dirty_by_file: dict[int, int] = {}
        # Dirty extents in write order per file: (offset, nbytes) at the
        # file's real offsets, so writeback presents genuine addresses to
        # the device.  The stream SSD model ignores offsets entirely (its
        # service time and event sequence are unchanged); the FTL tier
        # needs them to see the overwrite pattern cache files produce.
        self._dirty_extents: dict[int, list[tuple[int, int]]] = {}
        self._throttle_waiters: list[Callable[[], None]] = []
        self._flush_waiters: list[tuple[int, Event]] = []  # (file_id, event)
        self._daemon_running = False
        self._writing = 0  # the file whose chunk is in flight

    def buffered_write(self, file_id: int, nbytes: int, offset: int = 0) -> Optional[Event]:
        """Absorb ``nbytes`` into the page cache, throttling while it is
        full: a callback chain whose Event fires inline once the last byte
        is in (None for no bytes).  Abandoned, it takes no later step."""
        return _BufferedWrite(self, file_id, int(nbytes), int(offset)) if nbytes > 0 else None

    def fsync(self, file_id: int):
        """Generator: wait until this file has no dirty pages."""
        if self._dirty_by_file.get(file_id, 0) <= 0:
            return
        ev = Event(self.sim, name=f"fsync:{file_id}")
        self._flush_waiters.append((file_id, ev))
        self._ensure_daemon()
        yield ev

    def dirty_of(self, file_id: int) -> int:
        return self._dirty_by_file.get(file_id, 0)

    # -- writeback -----------------------------------------------------------
    def _ensure_daemon(self) -> None:
        if not self._daemon_running and self.dirty > 0:
            self._daemon_running = True
            self.sim.call_soon(partial(self.device.write_back, self._retire))

    def _retire(self, chunk: int) -> Optional[tuple[int, int]]:
        """``StorageDevice.write_back``'s ``retire``: the next chunk is of the
        file with the most dirty pages (approximates Linux's per-inode round
        robin), at the offset its extent FIFO starts at."""
        by_file = self._dirty_by_file
        left = 0
        if chunk:
            file_id = self._writing
            self.dirty -= chunk
            left = by_file[file_id] - chunk
            if left > 0:
                by_file[file_id] = left
            else:
                del by_file[file_id]
            if self._throttle_waiters or self._flush_waiters:
                self._wake_waiters()
        dirty = self.dirty
        if dirty <= 0:
            self._daemon_running = False
            return None
        if left != dirty:  # first chunk, or not the one dirty file (``dirty`` sums the ledger)
            self._writing = file_id = max(by_file, key=by_file.get)
            left = by_file[file_id]
        chunk = self.writeback_chunk if self.writeback_chunk < left else left
        # One coalesced device write off the extent FIFO, which covers the
        # ledger's bytes (``_BufferedWrite._copied`` writes both).
        extents = self._dirty_extents[file_id]
        offset = extents[0][0]
        need = chunk
        while need:
            off, size = extents[0]
            if size <= need:
                del extents[0]
                need -= size
            else:
                extents[0] = (off + need, size - need)
                break
        if not extents:
            del self._dirty_extents[file_id]
        return offset, chunk

    def _wake_waiters(self) -> None:
        if self.dirty < self.dirty_limit and self._throttle_waiters:
            waiters, self._throttle_waiters = self._throttle_waiters, []
            self.sim.call_soon(partial(self._wake_throttled, waiters))
        if self._flush_waiters:
            still = []
            for file_id, ev in self._flush_waiters:
                if self._dirty_by_file.get(file_id, 0) <= 0:
                    ev.succeed()
                else:
                    still.append((file_id, ev))
            self._flush_waiters = still

    def _wake_throttled(self, waiters: list[Callable[[], None]]) -> None:
        """Resume throttled writers in FIFO order while there is room; the
        unwoken tail goes back behind whoever queued since the step (see
        ``repro.pfs.server.WriteBackCache._wake``, the same rule)."""
        woken = 0
        for resume in waiters:
            if self.dirty_limit - self.dirty <= 0:
                self._throttle_waiters += waiters[woken:]
                return
            woken += 1
            resume()


class _BufferedWrite(Event):
    """One :meth:`PageCache.buffered_write` in flight, its own completion
    event: a chunk at a time, as much as there is room for, each copied in
    at memory speed, or a place in the throttle FIFO while there is none."""

    __slots__ = ("cache", "file_id", "remaining", "pos", "chunk")

    def __init__(self, cache: PageCache, file_id: int, nbytes: int, pos: int):
        Event.__init__(self, cache.sim, "buffered-write")
        self.abandon = settle
        self.cache, self.file_id, self.remaining, self.pos = cache, file_id, nbytes, pos
        self._next()

    def _next(self) -> None:
        if self._triggered:  # abandoned while throttled
            return
        cache = self.cache
        room = cache.dirty_limit - cache.dirty
        if room <= 0:
            cache._throttle_waiters.append(self._next)
            return
        self.chunk = chunk = min(self.remaining, room)
        cache.sim.call_later(chunk / cache.memcpy_bw, self._copied)

    def _copied(self) -> None:
        if self._triggered:
            return
        cache, file_id, chunk = self.cache, self.file_id, self.chunk
        cache.dirty += chunk
        cache._dirty_by_file[file_id] = cache._dirty_by_file.get(file_id, 0) + chunk
        cache._dirty_extents.setdefault(file_id, []).append((self.pos, chunk))
        self.pos += chunk
        self.remaining -= chunk
        cache._ensure_daemon()
        if self.remaining > 0:
            self._next()
        else:
            self._fire_inline()


class ComputeNode:
    """One cluster node: id, local SSD, page cache, memory accounting."""

    def __init__(self, sim: Simulator, node_id: int, config: ClusterConfig, tracer=None):
        self.sim = sim
        self.node_id = node_id
        self.config = config
        # Device tier (ClusterConfig.ssd_kind): the stream
        # SSDDevice by default (byte-identical to pre-FTL results), or the
        # page/block/LUN flash model — see repro.hw.flash and docs/DEVICES.md.
        self.ssd = create_node_ssd(sim, node_id, config)
        self.ssd.tracer = tracer  # FTL GC records (no-op untraced)
        # Byte-addressable NVMM region (the cache_kind=nvmm WAL medium).
        # Constructing it is event-free, so nodes always carry one and the
        # extent-cache default never touches it.
        self.nvmm = NVMMDevice(sim, name=f"nvmm{node_id}", nvmm=config.nvmm)
        self.page_cache = PageCache(
            sim,
            self.ssd,
            memcpy_bw=config.ram.memcpy_bw,
            dirty_limit=int(config.ram.dirty_ratio * config.ram.capacity),
        )
        # Collective-buffer memory accounting (the paper's memory-pressure
        # discussion): peak bytes pinned by ROMIO on this node.
        self.pinned_bytes = 0
        self.peak_pinned_bytes = 0

    def pin_memory(self, nbytes: int) -> None:
        self.pinned_bytes += nbytes
        if self.pinned_bytes > self.peak_pinned_bytes:
            self.peak_pinned_bytes = self.pinned_bytes

    def unpin_memory(self, nbytes: int) -> None:
        self.pinned_bytes = max(0, self.pinned_bytes - nbytes)

    def memcpy(self, nbytes: int):
        """Generator: charge a memory copy of ``nbytes``."""
        yield self.sim.timeout(nbytes / self.config.ram.memcpy_bw)
