"""Per-aggregator cache file state (``cache_fd`` in the paper).

Opened by ``ADIOI_GEN_OpenColl`` when ``e10_cache`` is enabled; holds the
local file handle, the sync thread, the pending-request list for
``flush_onclose``, outstanding generalized requests, and — in coherent
mode — the refcounts of global-file stripe locks held over in-transit
extents.

Cache-file extents live at their *global-file offsets* (the local FS is
sparse), so no extra layout metadata is needed to flush, and a later
collective write to a different region of the same file reuses the same
cache file naturally.

Paper correspondence: §III-A cache-file management on the aggregators.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

import numpy as np

from repro.cache.nvmlog import NVMMWriteLog
from repro.cache.policy import CachePolicy
from repro.cache.syncthread import SyncRequest, SyncThread
from repro.faults.errors import TornWriteError
from repro.faults.recovery import CacheJournal
from repro.intervals import IntervalSet
from repro.localfs.ext4 import LocalFileSystem
from repro.mpi.request import GeneralizedRequest
from repro.sim.core import Event, settle
from repro.sim.resources import abandon_wait


class CacheOpenError(OSError):
    """Cache file could not be opened/allocated; caller reverts to standard open."""


class CacheState:
    """Everything one aggregator keeps per cached global file."""

    def __init__(self, machine, rank: int, global_file, policy: CachePolicy, comm):
        self.machine = machine
        self.rank = rank
        self.global_file = global_file
        self.policy = policy
        self.comm = comm
        self.localfs: LocalFileSystem = machine.local_fs_of_rank(rank)
        cache_name = f"{policy.cache_path}/r{rank}{global_file.path.replace('/', '_')}.cache"
        # Backend: an extent file on the scratch SSD (the paper's design) or
        # a write-ahead log on the node's NVMM region (cache_kind=nvmm).
        self.local_file = None
        self.wal: Optional[NVMMWriteLog] = None
        if policy.cache_kind == "nvmm":
            self.wal = NVMMWriteLog(machine, machine.node_of_rank(rank), name=cache_name)
        else:
            try:
                self.local_file = self.localfs.open(cache_name, create=True)
            except OSError as exc:  # pragma: no cover - namespace errors are rare
                raise CacheOpenError(str(exc)) from exc
        self.sync_thread = SyncThread(machine, rank, self)
        self.pending: list[SyncRequest] = []  # not yet submitted (flush_onclose)
        self.outstanding: list[GeneralizedRequest] = []
        self.cached = IntervalSet()  # extents currently buffered locally
        self.bytes_cached = 0
        self._stripe_refs: dict[int, int] = {}
        self.closed = False
        # Fault state: a degraded cache stops accepting new writes (the
        # driver falls back to direct PFS writes) but keeps draining what it
        # already holds.
        self.degraded = False
        self.degraded_reason: Optional[str] = None
        # Crash-recovery journal: shares `cached` / `_stripe_refs` by
        # reference, so it always reflects live state without double
        # bookkeeping.  flush_none caches are never persisted — no journal.
        self.journal: Optional[CacheJournal] = None
        if not policy.flush_never:
            self.journal = CacheJournal(
                path=global_file.path,
                rank=rank,
                node_id=machine.node_of_rank(rank),
                local_path=cache_name,
                local_file=self.local_file,
                file_id=global_file.file_id,
                policy=policy,
                wal=self.wal,
                cached=self.cached,
                synced=IntervalSet(),
                stripe_refs=self._stripe_refs,
            )
            machine.recovery.register(self.journal)

    # -- the write path (called from ADIOI_GEN_WriteContig) ---------------------
    def write_through_cache(self, offset: int, nbytes: int, data: Optional[np.ndarray]) -> Event:
        """Write an extent into the cache file and create its sync request:
        a callback chain (:class:`_CachedWrite`) whose Event fires inline
        with the generalized request handle."""
        return _CachedWrite(self, offset, nbytes, data)

    def degrade(self, reason: str) -> None:
        """Enter degraded mode: new writes bypass the cache, in-flight
        extents keep draining.  Idempotent."""
        if self.degraded:
            return
        self.degraded = True
        self.degraded_reason = reason
        self.machine.cache_stats["degraded"] += 1
        self.machine.tracer.emit(
            self.machine.sim.now, "cache", "degraded", rank=self.rank, reason=reason
        )

    def release_stripe(self, stripe: int) -> None:
        refs = self._stripe_refs.get(stripe, 0)
        if refs <= 1:
            self._stripe_refs.pop(stripe, None)
            self.machine.pfs.locks.release(self.global_file.file_id, stripe, exclusive=True)
        else:
            self._stripe_refs[stripe] = refs - 1

    # -- flush (ADIOI_GEN_Flush) --------------------------------------------------
    def flush(self):
        """Generator: submit any pending requests and wait for all to complete."""
        while self.pending:
            self.sync_thread.submit(self.pending.pop(0))
        waiting, self.outstanding = self.outstanding, []
        for greq in waiting:
            yield from greq.wait()

    @property
    def sync_complete(self) -> bool:
        return not self.pending and all(g.complete_now for g in self.outstanding)

    # -- close ---------------------------------------------------------------------
    def close(self):
        """Generator: flush, stop the thread, discard the cache file if asked."""
        yield from self.flush()
        self.sync_thread.shutdown()
        if self.wal is not None:
            if self.policy.discard_on_close:
                self.wal.discard()
        else:
            self.localfs.close(self.local_file)
            if self.policy.discard_on_close and self.localfs.writable:
                if self.localfs.exists(self.local_file.path):
                    self.localfs.unlink(self.local_file.path)
        if self.journal is not None:
            self.machine.recovery.unregister(self.journal)
            self.journal = None
        self.closed = True


class _CachedWrite(Event):
    """One :meth:`CacheState.write_through_cache` in flight, its own event:
    the coherent stripe locks one at a time, the backend write — the extent
    file's buffered write, or the NVMM WAL's append, a torn one retried after
    the sync thread's backoff schedule (a torn record was never acknowledged,
    so re-appending is safe) — then the bookkeeping.  ENOSPC or a lost device
    (raised at once, or failing the event) first gives back the coherent
    locks: the caller falls back to a direct global write."""

    __slots__ = ("state", "offset", "nbytes", "data", "stripes", "held", "attempts")

    def __init__(self, state: CacheState, offset: int, nbytes: int, data):
        Event.__init__(self, state.machine.sim, "cache-write")
        self.state, self.offset, self.nbytes, self.data = state, offset, nbytes, data
        self.held: list[int] = []
        self.attempts = 0
        try:
            if state.policy.coherent:
                self.stripes = iter(state.global_file.layout.stripes_covered(offset, nbytes))
                self._lock()
            else:
                self._store()
        except OSError:
            self._release()
            raise

    def _step(self, fn, *args) -> None:
        """A step run from a callback: what it raises fails the chain."""
        try:
            fn(*args)
        except Exception as exc:
            self._fail(exc)

    def _fail(self, exc: BaseException) -> None:
        if isinstance(exc, OSError):
            self._release()
        self.abandon = None
        self._fire_inline(exc, ok=False)

    def _release(self) -> None:
        for s in self.held:
            self.state.release_stripe(s)

    def _lock(self, got: Optional[int] = None, _ev: Optional[Event] = None) -> None:
        state = self.state
        refs = state._stripe_refs
        if got is not None:
            refs[got] = refs.get(got, 0) + 1
            self.held.append(got)
        for s in self.stripes:
            if refs.get(s, 0) == 0:
                acquired = state.machine.pfs.locks.acquire(state.global_file.file_id, s)
                self.abandon = partial(abandon_wait, acquired)
                acquired.callbacks.append(partial(self._step, self._lock, s))
                return
            refs[s] += 1
            self.held.append(s)
        self._store()

    def _store(self) -> None:
        state = self.state
        if self._triggered:  # abandoned in a torn append's backoff
            return
        if state.wal is None:
            written = state.localfs.write(state.local_file, self.offset, self.nbytes, self.data)
            if written is None:  # no bytes
                self._stored()
                return
            then = self._stored
        else:
            written, then = state.wal.append(self.offset, self.nbytes, self.data), self._appended
        self.abandon = partial(abandon_wait, written)
        written.callbacks.append(then)

    def _appended(self, appended: Event) -> None:
        if appended._ok:
            self._stored()
            return
        exc, policy = appended._value, self.state.policy
        if isinstance(exc, TornWriteError):
            self.attempts += 1
            stats = self.state.machine.cache_stats
            stats["wal_torn"] = stats.get("wal_torn", 0) + 1
            if self.attempts <= policy.sync_retry_limit:
                self.abandon = settle
                backoff = policy.sync_backoff_base * policy.sync_backoff_factor ** (self.attempts - 1)
                self.state.machine.sim.call_later(backoff, partial(self._step, self._store))
                return
        self._fail(exc)

    def _stored(self, _ev: Optional[Event] = None) -> None:
        state, offset, nbytes = self.state, self.offset, self.nbytes
        stripes = tuple(self.held)
        state.cached.add(offset, offset + nbytes)
        state.bytes_cached += nbytes
        policy = state.policy
        io_stats = state.machine.io_stats
        io_stats["bytes_cached"] += nbytes
        if policy.flush_never:
            # These bytes will never be persisted by policy; account the
            # discard now so conservation closes without waiting for the
            # unlink.
            io_stats["bytes_discarded"] += nbytes
        greq = GeneralizedRequest(state.machine.sim)
        request = SyncRequest(offset, nbytes, greq, stripes=stripes)
        if policy.flush_never:
            # Evaluation aid (TBW series): the data stays in the cache;
            # complete the request so close never waits.  Coherent locks are
            # released immediately — nothing will ever be persisted.
            for s in stripes:
                state.release_stripe(s)
            greq.complete()
        else:
            state.outstanding.append(greq)
            if policy.flush_immediate:
                state.sync_thread.submit(request)
            else:
                state.pending.append(request)
        self.abandon = None
        self._fire_inline(greq)
