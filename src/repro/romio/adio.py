"""The Abstract Device I/O (ADIO) driver interface and registry.

ROMIO reaches each file system through an ADIO driver; the paper's cache
layer lives in the generic UFS driver and a BeeGFS driver adds
stripe-aligned file domains (footnote 1).  A contiguous write is a callback
chain (:meth:`ADIODriver.write_contig`): a rank process yields the Event it
returns, and a collective write's clock runs it with no process at all
(``ext2ph.CallClock``).  Open, flush and close are generators run inside
rank processes.

Paper correspondence: §II background — ROMIO's ADIO layering, the seam
the E10 cache (§III) hooks into.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

import numpy as np

from repro.cache.cachefile import CacheOpenError, CacheState
from repro.cache.policy import CachePolicy
from repro.romio.aggregation import FileDomain, partition_even, partition_stripe_aligned
from repro.romio.fd import ADIOFile
from repro.sim.core import Event, SimError
from repro.sim.resources import abandon_wait


class ADIODriver:
    """Base driver: generic behaviour, hook points for FS-specific logic."""

    name = "abstract"
    #: Whether writes carry the file's payload bytes (:mod:`repro.payload`):
    #: data sieving merges them into its read-modify-write.  The production
    #: drivers carry none; the tests' driver fills every ``write_contig``.
    payload = False

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
    ) -> Optional[Event]:
        """Write one contiguous extent: a callback chain whose Event fires
        inline once it is written (None for no bytes).

        Cache enabled: write to the cache file and register a sync request
        (falling back to the direct path if the cache is full).  Cache
        disabled: pipelined striped write to the global file.
        """
        if nbytes <= 0:
            return None
        state = fd.cache_states.get(rank)
        if state is not None and not state.degraded:
            try:
                cached = state.write_through_cache(offset, nbytes, data)
            except OSError as exc:
                state.degrade(str(exc))
            else:
                done = Event(fd.machine.sim, name="write-contig")
                done.abandon = partial(abandon_wait, cached)
                cached.callbacks.append(partial(self._cached, fd, rank, offset, nbytes, data, done))
                return done
        client = fd.machine.pfs_client(rank)
        written = client.write(fd.pfs_file, offset, nbytes, data=data, locking=self.write_locking(fd))
        written.callbacks.append(partial(_count_direct, fd.machine.io_stats, nbytes))
        return written

    def _cached(self, fd: ADIOFile, rank: int, offset, nbytes, data, done: Event, cached: Event):
        if cached._ok:
            fd.machine.io_stats["bytes_app"] += nbytes
            done.abandon = None
            done._fire_inline()
        elif isinstance(cached._value, OSError):
            # ENOSPC on the scratch partition or a lost cache device:
            # degrade — this and subsequent extents go directly to the
            # global file, while extents already cached keep draining
            # through the sync thread (dropping the state here would
            # orphan their generalized requests and hang close).
            fd.cache_states[rank].degrade(str(cached._value))
            try:
                direct = self.write_contig(fd, rank, offset, nbytes, data)
            except Exception as exc:
                done.abandon = None
                done._fire_inline(exc, ok=False)
            else:
                done.abandon = partial(abandon_wait, direct)
                direct.callbacks.append(partial(_forward, done))
        else:
            _forward(done, cached)

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


def _count_direct(io_stats: dict, nbytes: int, written: Event) -> None:
    if written._ok:
        io_stats["bytes_app"] += nbytes
        io_stats["bytes_direct"] += nbytes


def _forward(done: Event, ev: Event) -> None:
    """``done`` fires as ``ev`` did (a failed ``ev`` fails it)."""
    done.abandon = None
    done._fire_inline(ev._value, ev._ok)


_DRIVERS = {d.name: d for d in (UFSDriver(), BeeGFSDriver())}


def get_driver(name: str) -> ADIODriver:
    try:
        return _DRIVERS[name]
    except KeyError:
        raise SimError(f"unknown ADIO driver {name!r}; have {sorted(_DRIVERS)}") from None
