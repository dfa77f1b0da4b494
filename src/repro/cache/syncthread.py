"""The cache synchronisation thread (``ADIOI_Sync_thread_start``).

One simulated POSIX thread per aggregator per cached file.  It consumes
:class:`SyncRequest` work items from a FIFO queue: for each it reads the
extent back from the cache file (SSD read, possibly served from the page
cache) in ``ind_wr_buffer_size`` chunks and writes each chunk to the global
file through the *synchronous* independent-write client path, then calls
``MPI_Grequest_complete`` on the request's handle.

The loop over an extent — batch, read back, write sync, retry with backoff
— is the machine's ``flush``, which crash-recovery replay drives too:
:class:`Flush`, one callback chain, on production, faults or not.

``flush_batch_chunks`` (a simulation fidelity knob, not a semantic one)
coalesces several chunks into one macro-operation whose cost is the sum of
the per-chunk costs; 1 reproduces the implementation exactly.

Fault handling: transient :class:`~repro.faults.errors.FaultError` failures
(SSD read errors, PFS RPC timeouts) are retried in place with exponential
backoff up to ``policy.sync_retry_limit`` attempts; a chunk that exhausts
its retries re-queues the *remainder* of its request at the queue tail up
to ``policy.sync_requeue_limit`` times before the grequest is failed with
:class:`~repro.faults.errors.SyncFailedError`.  Progress is tracked
per batch in the cache journal's ``synced`` set, so crash recovery replays
only genuinely unflushed bytes.

Paper correspondence: §III-A — the background flush that hides sync cost
behind the next compute phase (Fig. 3).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.faults.errors import FaultError, SyncFailedError
from repro.mpi.request import GeneralizedRequest
from repro.sim.core import Event, Interrupt, settle
from repro.sim.resources import Store


@dataclass
class SyncRequest:
    """One cached extent awaiting synchronisation to the global file."""

    offset: int
    nbytes: int
    grequest: Optional[GeneralizedRequest]  # None: the shutdown sentinel
    stripes: tuple[int, ...] = ()  # stripes to unlock when persisted (coherent)
    requeues: int = 0  # times this extent has been re-queued after give-up


_SHUTDOWN = SyncRequest(0, 0, None)


class Flush(Event):
    """The loop over ``[pos, end)`` as one chain, an Event valued ``(end,
    None)`` or the position and error of the batch that spent the retry
    budget (:func:`repro.reference.flush`, the generator, has the contract).
    A batch's read-back (the log's or the cache file's ``read_flat``, bound
    once by ``journal.reader()``) and sync write (``client.write_sync_flat``)
    call back into it and hang their abandon hooks on it, so a batch
    allocates no Event; the last write fires it."""

    __slots__ = ("machine", "client", "pfs_file", "journal", "pos", "end", "ledger", "faulted",
                 "read", "gather", "chunk", "batch", "blen", "attempts")

    def __init__(self, machine, client, pfs_file, journal, pos, end, ledger, faulted=None):
        Event.__init__(self, machine.sim, "flush")
        self.machine, self.client, self.pfs_file, self.journal = machine, client, pfs_file, journal
        self.read, self.gather = journal.reader()
        self.pos, self.end, self.ledger, self.faulted = pos, end, ledger, faulted
        self.chunk = journal.policy.sync_chunk
        self.batch = self.chunk * machine.config.flush_batch_chunks
        self.blen = self.attempts = 0
        self._next()

    def _next(self, error: Optional[FaultError] = None) -> None:
        # The sync write's ``on_done``; the start of the first or a retried batch (blen 0).
        if error is not None:
            self._fault(error)
            return
        if self._triggered:  # abandoned in the backoff
            return
        pos, blen = self.pos, self.blen
        if blen:
            self.attempts = 0
            self.journal.synced.add(pos, pos + blen)
            self.machine.io_stats[self.ledger] += blen
            self.pos = pos = pos + blen
        left = self.end - pos
        if left <= 0:
            self._fire_inline((pos, None))
            return
        self.blen = blen = self.batch if self.batch < left else left
        self.read(pos, blen, self._write, self)

    def _write(self, error: Optional[FaultError]) -> None:
        if error is not None:
            self._fault(error)
            return
        pos, blen = self.pos, self.blen
        self.client.write_sync_flat(
            self.pfs_file, pos, blen, self._next, self,
            data=self.gather(pos, blen), rpc_count=-(-blen // self.chunk),
        )

    def _fault(self, exc: FaultError) -> None:
        self.attempts = attempts = self.attempts + 1
        if self.faulted is not None:
            self.faulted()
        policy = self.journal.policy
        if attempts > policy.sync_retry_limit:
            self.abandon = None
            self._fire_inline((self.pos, exc))
            return
        self.blen = 0
        self.abandon = settle  # the backoff: call_later takes the Timeout's slot
        self.machine.sim.call_later(
            policy.sync_backoff_base * (policy.sync_backoff_factor ** (attempts - 1)), self._next
        )


class SyncThread:
    """Background flusher bound to one aggregator's cache file."""

    def __init__(self, machine, rank: int, cache_state):
        self.machine = machine
        self.sim = machine.sim
        self.rank = rank
        self.cache_state = cache_state
        self.queue = Store(self.sim, name=f"syncq.r{rank}")
        self.client = machine.pfs_client(rank)
        self.requests_done = 0
        self.busy_time = 0.0
        self.retries = 0
        self.requeues = 0
        self.failures = 0
        self._proc = self.sim.process(self._run(), name=f"syncthread.r{rank}")
        if machine.faults is not None:
            machine.faults.register_daemon(self._proc, job_tag=machine.job_label)
        # Job teardown: an aborted job's parked sync threads are interrupted
        # from the list of its machine (or fleet JobView).
        machine.daemons.append(self._proc)

    def submit(self, request: SyncRequest) -> None:
        self.queue.put(request)

    def shutdown(self) -> None:
        self.queue.put(_SHUTDOWN)

    @property
    def alive(self) -> bool:
        return self._proc.is_alive

    # -- the thread body ---------------------------------------------------------
    def _run(self):
        """Take requests off the queue and flush each (``machine.flush``); a request
        whose flush spent its retry budget is given up (:meth:`_give_up`)."""
        try:
            while True:
                req: SyncRequest = yield self.queue.get()
                if req.grequest is None:
                    return
                t0 = self.sim.now
                end = req.offset + req.nbytes
                try:
                    state = self.cache_state
                    pos, error = yield from self.machine.flush(
                        self.machine, self.client, state.global_file, state.journal,
                        req.offset, end, "bytes_flushed", self._retried,
                    )
                finally:
                    self.busy_time += self.sim.now - t0
                if error is not None:
                    self._give_up(req, pos, end)
                    continue
                self.requests_done += 1
                for stripe in req.stripes:
                    self.cache_state.release_stripe(stripe)
                req.grequest.complete()
        except Interrupt:
            # The job was torn down (aggregator crash).  The cache file and
            # its journal survive; recovery replays unflushed extents on the
            # next open.  Returning cleanly parks this daemon.
            return

    def _retried(self) -> None:
        self.retries += 1
        self._stat("retries")

    def _give_up(self, req: SyncRequest, pos: int, end: int) -> None:
        """Retries exhausted for the chunk at ``pos``: re-queue the remainder
        at the tail (later faults may have cleared) or fail the grequest."""
        if req.requeues < self.cache_state.policy.sync_requeue_limit:
            self.requeues += 1
            self._stat("requeues")
            self.queue.put(replace(req, offset=pos, nbytes=end - pos, requeues=req.requeues + 1))
            return
        self.failures += 1
        self._stat("sync_failures")
        self.machine.io_stats["bytes_lost"] += end - pos
        for stripe in req.stripes:
            self.cache_state.release_stripe(stripe)
        # Fleet runs label the error with the owning job so a failure in a
        # multi-job simulation is attributable (job_label is None on a plain
        # single-job Machine).
        job = self.machine.job_label
        whose = f"job {job}: " if job is not None else ""
        req.grequest.fail(
            SyncFailedError(
                f"{whose}sync of [{pos}, {end}) on rank {self.rank} "
                f"abandoned after {req.requeues} re-queues"
            )
        )

    def _stat(self, key: str) -> None:
        self.machine.cache_stats[key] += 1
