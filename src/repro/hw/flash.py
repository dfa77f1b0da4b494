"""FTL-aware flash device + byte-addressable NVMM device models.

The stream :class:`~repro.hw.devices.SSDDevice` charges latency + bytes/bw
and nothing else, so the sync thread's steady overwrite load — exactly the
access pattern where flash behaves worst — costs nothing extra.  This
module adds the realistic tier:

* :class:`FlashSSDDevice` — a page/block/LUN SSD with a page-mapped FTL:
  logical pages stripe across ``num_luns`` independently-programmable dies,
  writes append at each LUN's active block, overwrites invalidate the old
  physical page, and a greedy foreground garbage collector (victim = most
  invalid pages) reclaims erase blocks from the over-provisioning pool when
  a LUN's free pool runs low.  Program/erase asymmetry, GC relocation
  traffic and erase stalls are charged inside the host request that
  triggered them, so write amplification shows up as *service time* where
  the cache layer can feel it.  All FTL bookkeeping runs synchronously in
  :meth:`service_time` — no extra simulator events — so the device drops
  into the production fast paths unchanged.

* :class:`NVMMDevice` — DIMM-attached persistent memory (the
  ``cache_kind=nvmm`` write-ahead-log medium): load/store bandwidth with a
  per-record persistence-barrier cost, no pages, no GC.

Device selection: ``ClusterConfig.ssd_kind`` is ``stream`` (byte-identical
to the pre-FTL model) or ``ftl``; unless given, ``REPRO_SSD`` picks it when
the config is built (:mod:`repro.options`, default ``stream``).

Calibration sources: Liu et al., "Performance characterization of NVMe
flash devices" (arXiv:1705.03598) for flash timing constants and the
NVMM read/write asymmetry; NVCache (arXiv:2105.10397) for the WAL-mode
device role.  See docs/DEVICES.md for the parameter tables.

Paper correspondence: §IV-A node-local non-volatile devices — the
realistic tier behind the paper's SATA SSD scratch partition (ROADMAP
item 4).
"""

from __future__ import annotations

from typing import Optional

from repro.config import ClusterConfig, FlashConfig, NVMMConfig
from repro.hw.devices import SSDDevice, StorageDevice
from repro.sim.core import Simulator


def create_node_ssd(sim: Simulator, node_id: int, config: ClusterConfig) -> StorageDevice:
    """Build one node's scratch SSD per ``config.ssd_kind``."""
    if config.ssd_kind == "ftl":
        return FlashSSDDevice(
            sim,
            name=f"ssd{node_id}",
            flash=config.flash,
            capacity_bytes=config.ssd.capacity,
        )
    return SSDDevice(
        sim,
        name=f"ssd{node_id}",
        write_bw=config.ssd.write_bw,
        read_bw=config.ssd.read_bw,
        latency=config.ssd.latency,
        capacity_bytes=config.ssd.capacity,
    )


class FlashSSDDevice(StorageDevice):
    """Page/block/LUN flash with a page-mapped FTL and greedy foreground GC.

    The logical space is the advertised partition (``capacity_bytes``);
    physical flash adds ``over_provisioning`` more erase blocks.  Logical
    page ``n`` lives on LUN ``n % num_luns`` (sequential streams engage all
    dies); the writeback daemon's monotonically increasing offsets wrap
    modulo the logical space, which is how a steadily-flushing cache cycles
    the partition and ages the FTL.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        flash: FlashConfig,
        capacity_bytes: int,
    ):
        super().__init__(sim, name, capacity_bytes)
        self.flash = flash
        ps = flash.page_size
        ppb = flash.pages_per_block
        self.page_size = ps
        self.pages_per_block = ppb
        self.num_luns = flash.num_luns
        self.logical_pages = max(1, -(-int(capacity_bytes) // ps))
        # Size each LUN independently: its logical share plus at least two
        # over-provisioned blocks.  The floor of two is a liveness
        # requirement, not tuning — one block backs the GC write frontier
        # and one keeps the free pool from draining to zero, which is what
        # guarantees relocation always has a destination (see _collect).
        lpages_per_lun = -(-self.logical_pages // self.num_luns)
        lblocks_per_lun = -(-lpages_per_lun // ppb)
        op_per_lun = max(2, int(lblocks_per_lun * flash.over_provisioning))
        per_lun = lblocks_per_lun + op_per_lun
        phys_blocks = per_lun * self.num_luns
        self.num_blocks = phys_blocks
        # GC engages when a LUN's free pool dips to this many blocks; at
        # least 2 so relocation always has a block to write into.
        self.gc_reserve_blocks = max(2, int(per_lun * flash.gc_free_fraction))

        # FTL state.  Block b belongs to LUN b % num_luns; page addresses
        # are ppn = block * pages_per_block + slot.
        self._l2p: dict[int, int] = {}
        self._p2l: dict[int, int] = {}
        self._valid = [0] * phys_blocks  # valid pages per block
        self._next_slot = [0] * phys_blocks  # program point (reset by erase)
        self._free: list[list[int]] = [[] for _ in range(self.num_luns)]
        self._closed: list[set[int]] = [set() for _ in range(self.num_luns)]
        self._active: list[int] = []
        # Separate GC write frontier per LUN (lazily opened): host writes
        # and relocation never share a block, so a GC pass can always
        # budget its destination slots up front.
        self._gc_active: list[Optional[int]] = [None] * self.num_luns
        for lun in range(self.num_luns):
            blocks = list(range(lun, phys_blocks, self.num_luns))
            self._active.append(blocks[0])
            self._free[lun] = blocks[:0:-1]  # pop() hands out ascending ids

        # Accounting (surfaced via SimProfiler counters + Chrome traces).
        self.host_pages_programmed = 0
        self.gc_pages_programmed = 0
        self.pages_read = 0
        self.blocks_erased = 0
        self.gc_runs = 0
        self.gc_stall_time = 0.0
        self._profiler = getattr(sim, "profiler", None)

    @property
    def pages_programmed(self) -> int:
        """Total pages programmed (host + GC relocation)."""
        return self.host_pages_programmed + self.gc_pages_programmed

    @property
    def write_amplification(self) -> float:
        """Physical pages programmed per host page programmed (>= 1)."""
        if self.host_pages_programmed == 0:
            return 1.0
        return self.pages_programmed / self.host_pages_programmed

    # -- service-time model -------------------------------------------------------
    def service_time(self, offset: int, nbytes: int, is_write: bool) -> float:
        fc = self.flash
        if nbytes <= 0:
            return fc.read_page_time if not is_write else fc.program_page_time
        first = offset // self.page_size
        last = (offset + nbytes - 1) // self.page_size
        npages = last - first + 1
        per_lun = -(-npages // self.num_luns)  # dies work in parallel
        bus = nbytes / fc.bus_bw
        if not is_write:
            self.pages_read += npages
            return max(per_lun * fc.read_page_time, bus)
        gc_stall = 0.0
        for lpn in range(first, last + 1):
            gc_stall += self._program_lpn(lpn % self.logical_pages)
        self.host_pages_programmed += npages
        prof = self._profiler
        if prof is not None:
            prof.count("flash.host_pages", npages)
            if gc_stall > 0.0:
                prof.count("flash.gc_stall_us", int(gc_stall * 1e6))
        return max(per_lun * fc.program_page_time, bus) + gc_stall

    # -- FTL internals ------------------------------------------------------------
    def _program_lpn(self, lpn: int) -> float:
        """Map ``lpn`` onto a fresh physical page; returns GC stall seconds."""
        old = self._l2p.get(lpn)
        if old is not None:
            self._valid[old // self.pages_per_block] -= 1
            del self._p2l[old]
        lun = lpn % self.num_luns
        stall = 0.0
        if self._next_slot[self._active[lun]] >= self.pages_per_block:
            stall = self._open_new_block(lun)
        ppn = self._program_into_active(lun, lpn)
        self._l2p[lpn] = ppn
        return stall

    def _program_into_active(self, lun: int, lpn: int) -> int:
        block = self._active[lun]
        slot = self._next_slot[block]
        # Erase-before-program: a slot is programmed at most once per erase
        # cycle; _open_new_block retires full blocks before this point.
        assert slot < self.pages_per_block, "program past erase-block end"
        self._next_slot[block] = slot + 1
        self._valid[block] += 1
        ppn = block * self.pages_per_block + slot
        self._p2l[ppn] = lpn
        return ppn

    def _open_new_block(self, lun: int) -> float:
        """Retire the full active block, pull a free one, GC if pool is low."""
        self._closed[lun].add(self._active[lun])
        stall = 0.0
        while len(self._free[lun]) < self.gc_reserve_blocks and self._closed[lun]:
            gained = self._collect(lun)
            stall += gained
            if gained == 0.0:  # no victim reclaimable right now
                break
        assert self._free[lun], "flash LUN exhausted: every block fully valid"
        self._active[lun] = self._free[lun].pop()
        return stall

    def _gc_slack(self, lun: int) -> int:
        """Free slots on the GC write frontier (0 when closed / not open)."""
        block = self._gc_active[lun]
        if block is None:
            return 0
        return self.pages_per_block - self._next_slot[block]

    def _gc_program(self, lun: int, lpn: int) -> int:
        """Program one relocated page onto the GC write frontier."""
        block = self._gc_active[lun]
        if block is None or self._next_slot[block] >= self.pages_per_block:
            if block is not None:
                self._closed[lun].add(block)
            # _collect budgeted destination slots before starting the pass,
            # so the pool cannot be empty here.
            assert self._free[lun], "GC frontier switch with empty free pool"
            self._gc_active[lun] = block = self._free[lun].pop()
        slot = self._next_slot[block]
        self._next_slot[block] = slot + 1
        self._valid[block] += 1
        ppn = block * self.pages_per_block + slot
        self._p2l[ppn] = lpn
        return ppn

    def _collect(self, lun: int) -> float:
        """One greedy GC pass: relocate the most-invalid closed block."""
        ppb = self.pages_per_block
        # A full GC frontier joins the closed set (its stale pages become
        # reclaimable); a partial one stays the relocation destination.
        gc_block = self._gc_active[lun]
        if gc_block is not None and self._next_slot[gc_block] >= ppb:
            self._closed[lun].add(gc_block)
            self._gc_active[lun] = None
        # The host's active block is in the closed set while it is being
        # retired, but it must never be the victim: erasing the program
        # point would let slots be re-programmed without an erase cycle.
        candidates = self._closed[lun] - {self._active[lun]}
        if not candidates:
            return 0.0
        victim = max(candidates, key=lambda b: ppb - self._valid[b])
        moved = self._valid[victim]
        if moved >= ppb:
            return 0.0  # fully valid: erasing it frees nothing
        if moved > self._gc_slack(lun) + len(self._free[lun]) * ppb:
            return 0.0  # survivors don't fit before the victim's erase lands
        self._closed[lun].discard(victim)
        fc = self.flash
        stall = fc.erase_block_time
        if moved:
            base = victim * ppb
            survivors = [
                (ppn, self._p2l[ppn])
                for ppn in range(base, base + ppb)
                if ppn in self._p2l
            ]
            for ppn, lpn in survivors:
                del self._p2l[ppn]
                self._valid[victim] -= 1
                self._l2p[lpn] = self._gc_program(lun, lpn)
            stall += moved * (fc.read_page_time + fc.program_page_time)
            self.gc_pages_programmed += moved
        # Erase the now-empty victim back into the free pool.
        self._next_slot[victim] = 0
        self._free[lun].append(victim)
        self.blocks_erased += 1
        self.gc_runs += 1
        self.gc_stall_time += stall
        prof = self._profiler
        if prof is not None:
            prof.count("flash.gc_runs")
            prof.count("flash.gc_pages", moved)
            prof.count("flash.blocks_erased")
        tracer = self.tracer
        if tracer is not None:
            tracer.emit(
                self.sim.now,
                "flash",
                "gc",
                device=self.name,
                lun=lun,
                victim=victim,
                moved=moved,
                stall=stall,
            )
        return stall

    def stats(self) -> dict[str, float]:
        return {
            "host_pages_programmed": self.host_pages_programmed,
            "gc_pages_programmed": self.gc_pages_programmed,
            "pages_read": self.pages_read,
            "blocks_erased": self.blocks_erased,
            "gc_runs": self.gc_runs,
            "gc_stall_time": self.gc_stall_time,
            "write_amplification": self.write_amplification,
        }


class NVMMDevice(StorageDevice):
    """Byte-addressable persistent memory: load/store + persistence barrier.

    No pages, no FTL: service time is latency + bytes/bandwidth with the
    read/write asymmetry of 3D-XPoint-class media.  ``persist_barrier`` is
    the CLWB+SFENCE drain the WAL pays once per appended record (charged by
    :class:`repro.cache.nvmlog.NVMMWriteLog`, not per device request).
    """

    def __init__(self, sim: Simulator, name: str, nvmm: NVMMConfig):
        super().__init__(sim, name, nvmm.capacity)
        self.nvmm = nvmm
        self.read_bw = float(nvmm.read_bw)
        self.write_bw = float(nvmm.write_bw)
        self.latency = float(nvmm.latency)
        self.persist_barrier = float(nvmm.persist_barrier)
        # Bytes of the log region currently reserved by NVMMWriteLog
        # instances on this node (headers included).
        self.log_used = 0

    def service_time(self, offset: int, nbytes: int, is_write: bool) -> float:
        bw = self.write_bw if is_write else self.read_bw
        return self.latency + nbytes / bw
