"""The Abstract Device I/O (ADIO) driver interface and registry.

ROMIO reaches each file system through an ADIO driver; the paper's cache
layer lives in the generic UFS driver and a BeeGFS driver adds
stripe-aligned file domains (footnote 1).  Driver methods are generators
run inside rank processes.

Paper correspondence: §II background — ROMIO's ADIO layering, the seam
the E10 cache (§III) hooks into.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.cache.cachefile import CacheOpenError, CacheState
from repro.cache.policy import CachePolicy
from repro.romio.aggregation import FileDomain, partition_even, partition_stripe_aligned
from repro.romio.fd import ADIOFile
from repro.sim.core import SimError


class ADIODriver:
    """Base driver: generic behaviour, hook points for FS-specific logic."""

    name = "abstract"

    # ---- file domain partitioning ------------------------------------------------
    def partition_domains(
        self, fd: ADIOFile, min_st: int, max_end: int
    ) -> list[FileDomain]:
        return partition_even(min_st, max_end, fd.aggregators)

    # ---- open (ADIOI_GEN_OpenColl, per rank) -------------------------------------
    def open_cache(self, fd: ADIOFile, rank: int):
        """Open the cache file for an aggregator (if enabled).

        Returns a generator to drive, or ``None`` when there is nothing to
        wait on (most ranks, most configurations) — callers skip the empty
        frame.  'If for any reason the open of the cache file fails, the
        implementation reverts to standard open' — so failures leave the
        rank cache-less rather than erroring.
        """
        if not fd.hints.cache_enabled or not fd.is_aggregator(rank):
            fd.cache_states[rank] = None
            return None
        policy = CachePolicy.from_hints(fd.hints)
        try:
            state = CacheState(fd.machine, rank, fd.pfs_file, policy, fd.comm)
        except CacheOpenError as exc:
            fd.cache_states[rank] = None
            fd.open_error = str(exc)
            return None
        fd.cache_states[rank] = state
        return self._open_cache_wait(fd)

    @staticmethod
    def _open_cache_wait(fd: ADIOFile):
        # Opening the cache file costs one local metadata touch.
        yield fd.machine.sim.timeout(100e-6)

    # ---- contiguous write (ADIOI_GEN_WriteContig / ADIO_WriteContig) -------------
    def write_contig(
        self,
        fd: ADIOFile,
        rank: int,
        offset: int,
        nbytes: int,
        data: Optional[np.ndarray] = None,
    ):
        """Generator: write one contiguous extent.

        Cache enabled: write to the cache file and register a sync request
        (falling back to the direct path if the cache is full).  Cache
        disabled: pipelined striped write to the global file.
        """
        if nbytes <= 0:
            return
        io_stats = fd.machine.io_stats
        state = fd.cache_state(rank)
        if state is not None and not state.degraded:
            try:
                yield from state.write_through_cache(offset, nbytes, data)
                io_stats["bytes_app"] += nbytes
                return
            except OSError as exc:
                # ENOSPC on the scratch partition or a lost cache device:
                # degrade — this and subsequent extents go directly to the
                # global file, while extents already cached keep draining
                # through the sync thread (dropping the state here would
                # orphan their generalized requests and hang close).
                state.degrade(str(exc))
        client = fd.machine.pfs_client(rank)
        yield from client.write(fd.pfs_file, offset, nbytes, data=data, locking=self.write_locking(fd))
        io_stats["bytes_app"] += nbytes
        io_stats["bytes_direct"] += nbytes

    def write_locking(self, fd: ADIOFile) -> bool:
        """Whether plain writes take stripe extent locks (POSIX-ish FS: yes)."""
        return True

    # ---- flush (ADIOI_GEN_Flush) ---------------------------------------------------
    def flush(self, fd: ADIOFile, rank: int):
        """Complete all outstanding cache synchronisation.

        Returns the cache state's flush generator, or ``None`` when the
        rank holds no cache state (nothing to wait on)."""
        state = fd.cache_state(rank)
        if state is None:
            return None
        return state.flush()

    # ---- close (ADIO_Close, per rank local part) -----------------------------------
    def close_rank(self, fd: ADIOFile, rank: int):
        """Flush + release this rank's cache resources.

        Returns a generator to drive, or ``None`` for cache-less ranks."""
        state = fd.cache_state(rank)
        if state is None:
            return None
        return self._close_rank_gen(fd, rank, state)

    @staticmethod
    def _close_rank_gen(fd: ADIOFile, rank: int, state):
        yield from state.close()
        fd.cache_states[rank] = None


class UFSDriver(ADIODriver):
    """The generic Unix-FS driver: even file domains (no layout knowledge).

    This is where the paper's prototype lives — the hint extensions are
    implemented 'in the ROMIO implementation of the Universal File System
    (UFS) ADIO driver'.
    """

    name = "ufs"


class BeeGFSDriver(ADIODriver):
    """BeeGFS driver: detects striping and aligns file domains to stripes
    (developed in the course of the paper's work, footnote 1)."""

    name = "beegfs"

    def partition_domains(self, fd: ADIOFile, min_st: int, max_end: int):
        stripe = fd.pfs_file.layout.stripe_size
        return partition_stripe_aligned(min_st, max_end, fd.aggregators, stripe)

    def write_locking(self, fd: ADIOFile) -> bool:
        # BeeGFS does not lock byte ranges for plain writes; coherence for
        # cached extents is handled by the cache layer when requested.
        return False


_DRIVERS = {d.name: d for d in (UFSDriver(), BeeGFSDriver())}


def get_driver(name: str) -> ADIODriver:
    try:
        return _DRIVERS[name]
    except KeyError:
        raise SimError(f"unknown ADIO driver {name!r}; have {sorted(_DRIVERS)}") from None
