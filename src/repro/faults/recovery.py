"""Cache crash-recovery: journals of persisted-but-unflushed extents.

The paper's argument for an SSD cache over a DRAM one is that cached
collective writes *survive an aggregator crash* and can still be flushed to
the global file afterwards.  This module implements that recovery path:

* every :class:`~repro.cache.cachefile.CacheState` registers a
  :class:`CacheJournal` with the machine-wide :class:`CacheRecoveryRegistry`
  (sharing its ``cached`` interval set and stripe-lock refcounts by
  reference, so the journal is always current at zero bookkeeping cost) and
  unregisters it on a clean close;
* after a crash the journals stay behind — the sim-level stand-in for the
  small amount of per-file metadata a real implementation would persist
  next to the cache file;
* on the next collective ``MPI_File_open`` of the same path,
  :meth:`CacheRecoveryRegistry.replay` runs on the lowest rank of each node
  that holds a journal: it revokes the dead owner's stripe locks (server-side
  lease revocation), reads every *unflushed* extent back from the surviving
  cache file (``cached`` minus ``synced``, at sync-chunk granularity) and
  rewrites it through the synchronous client path.

Replay is idempotent by construction: a sync request that was mid-flight at
crash time may have persisted some chunks already, but rewriting the whole
extent stores identical bytes, so the recovered global file is byte-identical
to a fault-free run.  Replay rewrites through the sync thread's own flush
loop (the machine's ``flush``: :class:`repro.cache.syncthread.Flush` on
production), so transient faults that
outlive the crash into the recovery window (flaky reads, a stalled server
tripping the sync-RPC watchdog) are retried in place under the cache's
policy before the error is allowed to abort the recovering rank.

Paper correspondence: none — recovery semantics the paper leaves open
for its §III cache (journal + replay on next collective open).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Optional

from repro.intervals import IntervalSet

if TYPE_CHECKING:
    from repro.cache.policy import CachePolicy


@dataclass
class CacheJournal:
    """What one aggregator's cache file would need for crash recovery."""

    path: str  # global file path
    rank: int  # owning aggregator rank (dead after a crash)
    node_id: int  # node holding the cache file
    local_path: str
    local_file: object  # the LocalFile handle (survives a process crash)
    file_id: int  # PFS file id (for lock revocation)
    policy: CachePolicy  # the cache's: sync chunk, retry budget, discard flag
    cached: IntervalSet = field(default_factory=IntervalSet)  # shared with CacheState
    synced: IntervalSet = field(default_factory=IntervalSet)
    stripe_refs: dict[int, int] = field(default_factory=dict)  # shared (coherent mode)
    # NVMM backend (cache_kind=nvmm): the write-ahead log to replay from
    # instead of the extent file; ``local_file`` is None in that mode.
    wal: Optional[object] = None
    # Set by the injector's crash teardown: the owning process died with
    # this journal still registered.  Replay touches *only* orphaned
    # journals — a restarted job re-registers a live journal for the same
    # path before the replay pass runs, and that one is not recoverable
    # state, it is the new incarnation's working cache.
    orphaned: bool = False

    def unflushed(self) -> list[tuple[int, int]]:
        """Extents written to the cache but not yet persisted globally."""
        out: list[tuple[int, int]] = []
        for start, end in self.cached:
            out.extend(self.synced.gaps(start, end))
        return out

    @property
    def unflushed_bytes(self) -> int:
        return sum(e - s for s, e in self.unflushed())

    # -- read-back (the flush loop: sync thread and replay) ----------------------
    def reader(self):
        """``(read_flat, gather)`` of the log or the cache file, bound once a
        flush: ``read_flat(pos, blen, on_done, done)`` reads ``[pos,
        pos+blen)`` back (``StorageDevice.read_flat``'s contract) and
        ``gather(pos, blen)`` has its cached bytes (None: no payloads)."""
        if self.wal is not None:
            return self.wal.read_flat, self.wal.gather
        f = self.local_file
        return partial(f.fs.read_flat, f), partial(f.fs.gather, f)


class CacheRecoveryRegistry:
    """Machine-wide directory of live cache journals + the replay pass."""

    def __init__(self, machine):
        self.machine = machine
        self._journals: list[CacheJournal] = []
        self.extents_replayed = 0
        self.files_recovered = 0
        self.recovery_time = 0.0

    # -- bookkeeping (driven by CacheState) --------------------------------------
    def register(self, journal: CacheJournal) -> None:
        self._journals.append(journal)

    def unregister(self, journal: CacheJournal) -> None:
        try:
            self._journals.remove(journal)
        except ValueError:
            pass

    def entries(self, path: Optional[str] = None) -> list[CacheJournal]:
        if path is None:
            return list(self._journals)
        return [j for j in self._journals if j.path == path]

    def has_orphans(self, path: Optional[str] = None) -> bool:
        """Does any *orphaned* journal (for ``path``, if given) hold
        unflushed data?"""
        return any(j.orphaned and j.unflushed() for j in self.entries(path))

    # -- the replay pass (run during collective open) ------------------------------
    def replay(self, fd, rank: int):
        """Generator: replay this node's journals for ``fd.path``.

        Runs on the lowest rank of each node (the rank that would own the
        node's cache files); other ranks fall straight through and meet the
        replaying ranks at the barrier the caller places after this.  Each
        unflushed extent goes through the sync thread's flush
        (``machine.flush``); a spent retry budget raises.
        """
        if rank % self.machine.config.procs_per_node != 0:
            return
        node_id = self.machine.node_of_rank(rank)
        mine = [
            j for j in self.entries(fd.path) if j.node_id == node_id and j.orphaned
        ]
        if not mine:
            return
        sim = self.machine.sim
        t0 = sim.now
        # Cascade hook: faults armed on "recovery_replay" (a second crash
        # landing while the journal is being replayed) trigger from here.
        if self.machine.faults is not None:
            self.machine.faults.notify("recovery_replay", job=self.machine.job_label)
        client = self.machine.pfs_client(rank)
        localfs = self.machine.local_fs[node_id]
        for journal in mine:
            self._revoke_locks(journal)
            wal = journal.wal
            local_file = None
            if wal is None:
                local_file = localfs.open(journal.local_path, create=False)
            try:
                for start, end in journal.unflushed():
                    _, error = yield from self.machine.flush(
                        self.machine, client, fd.pfs_file, journal, start, end, "bytes_replayed"
                    )
                    if error is not None:
                        raise error
                    self.extents_replayed += 1
            finally:
                if local_file is not None:
                    localfs.close(local_file)
            self.unregister(journal)
            self.files_recovered += 1
            # A cascade leaves several journals naming one cache file, and a
            # restarted incarnation's live journal names it too: the last of
            # them to let go discards it.
            if not journal.policy.discard_on_close or any(
                j.node_id == node_id and j.local_path == journal.local_path
                for j in self._journals
            ):
                continue
            if wal is not None:
                wal.discard()
            elif localfs.writable and localfs.exists(journal.local_path):
                localfs.unlink(journal.local_path)
        self.recovery_time += sim.now - t0
        self.machine.tracer.emit(
            sim.now,
            "recovery",
            "replay_done",
            path=fd.path,
            node=node_id,
            files=len(mine),
            bytes=self.machine.io_stats["bytes_replayed"],
        )

    def _revoke_locks(self, journal: CacheJournal) -> None:
        """Release stripe locks the dead owner held over in-transit extents
        (coherent mode) — the server-side analogue of lease revocation."""
        locks = self.machine.pfs.locks
        for stripe in list(journal.stripe_refs):
            locks.release(journal.file_id, stripe, exclusive=True)
        journal.stripe_refs.clear()

    def stats(self) -> dict[str, float]:
        return {
            "bytes_replayed": self.machine.io_stats["bytes_replayed"],
            "extents_replayed": self.extents_replayed,
            "files_recovered": self.files_recovered,
            "recovery_time": self.recovery_time,
        }
