"""The cache synchronisation thread (``ADIOI_Sync_thread_start``).

One simulated POSIX thread per aggregator per cached file.  It consumes
:class:`SyncRequest` work items from a FIFO queue: for each it reads the
extent back from the cache file (SSD read, possibly served from the page
cache) in ``ind_wr_buffer_size`` chunks and writes each chunk to the global
file through the *synchronous* independent-write client path, then calls
``MPI_Grequest_complete`` on the request's handle.

``flush_batch_chunks`` (a simulation fidelity knob, not a semantic one)
coalesces several chunks into one macro-operation whose cost is the sum of
the per-chunk costs; 1 reproduces the implementation exactly.

Fault handling: transient :class:`~repro.faults.errors.FaultError` failures
(SSD read errors, PFS RPC timeouts) are retried in place with exponential
backoff up to ``policy.sync_retry_limit`` attempts; a chunk that exhausts
its retries re-queues the *remainder* of its request at the queue tail up
to ``policy.sync_requeue_limit`` times before the grequest is failed with
:class:`~repro.faults.errors.SyncFailedError`.  Progress is tracked
per-chunk through ``cache_state.mark_synced`` so crash recovery replays
only genuinely unflushed bytes.

Paper correspondence: §III-A — the background flush that hides sync cost
behind the next compute phase (Fig. 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.faults.errors import FaultError, SyncFailedError
from repro.mpi.request import GeneralizedRequest
from repro.sim.core import Interrupt
from repro.sim.resources import Store


@dataclass
class SyncRequest:
    """One cached extent awaiting synchronisation to the global file."""

    offset: int
    nbytes: int
    grequest: Optional[GeneralizedRequest]
    stripes: tuple[int, ...] = ()  # stripes to unlock when persisted (coherent)

    shutdown: bool = False
    requeues: int = 0  # times this extent has been re-queued after give-up


_SHUTDOWN = SyncRequest(0, 0, None, shutdown=True)


class SyncThread:
    """Background flusher bound to one aggregator's cache file."""

    def __init__(self, machine, rank: int, cache_state, global_file, policy):
        self.machine = machine
        self.sim = machine.sim
        self.rank = rank
        self.cache_state = cache_state
        self.global_file = global_file
        self.policy = policy
        self.queue = Store(self.sim, name=f"syncq.r{rank}")
        self.client = machine.pfs_client(rank)
        self.localfs = machine.local_fs_of_rank(rank)
        self.bytes_synced = 0
        self.requests_done = 0
        self.busy_time = 0.0
        self.retries = 0
        self.requeues = 0
        self.failures = 0
        # Preresolved machine-wide counter dict (may be None): _stat runs per
        # retry/requeue, so the getattr lookup is hoisted out of the hot path.
        self._stats = getattr(machine, "cache_stats", None)
        self._io_stats = getattr(machine, "io_stats", None)
        # Flat service loop (production stack): the read/write chain runs
        # as event callbacks instead of nested generator frames.  Requires
        # no fault schedule at all — a flat chain cannot be interrupted
        # mid-flight, and serve_write_event needs every server injector-free.
        inj = getattr(machine, "faults", None)
        self._flat = not machine.reference and inj is None
        self._proc = self.sim.process(self._run(), name=f"syncthread.r{rank}")
        if inj is not None:
            inj.register_daemon(
                self._proc, job_tag=getattr(machine, "job_label", None)
            )
        # Fleet job teardown: a JobView collects its daemons so an aborted
        # job's parked sync threads can be interrupted when its nodes are
        # released (a plain Machine has no such list).
        daemons = getattr(machine, "daemons", None)
        if daemons is not None:
            daemons.append(self._proc)

    def submit(self, request: SyncRequest) -> None:
        self.queue.put(request)

    def shutdown(self) -> None:
        self.queue.put(_SHUTDOWN)

    @property
    def alive(self) -> bool:
        return self._proc.is_alive

    # -- the thread body ---------------------------------------------------------
    def _run(self):
        """One flush loop for both stacks.  Flat, a chunk's yields are the
        composite Events of the flattened localfs/PFS fast paths
        (:meth:`CacheState.read_back_event`, :meth:`PFSClient.write_sync_flat`)
        — two process resumes per batch instead of a resume per frame of
        the read/write generator stack, which is what runs otherwise; same
        reads, writes, journal marks and counters in the same
        event-callback positions (the flat helpers fire inline where the
        generator's caller would resume)."""
        cfg = self.machine.config
        chunk = self.policy.sync_chunk
        batch_chunks = max(1, cfg.flush_batch_chunks)
        flat = self._flat
        try:
            while True:
                req: SyncRequest = yield self.queue.get()
                if req.shutdown or req.grequest is None:
                    return
                t0 = self.sim.now
                pos = req.offset
                end = req.offset + req.nbytes
                attempts = 0
                try:
                    while pos < end:
                        blen = min(chunk * batch_chunks, end - pos)
                        nchunks = math.ceil(blen / chunk)
                        try:
                            if flat:
                                data = yield self.cache_state.read_back_event(pos, blen)
                                yield self.client.write_sync_flat(
                                    self.global_file,
                                    pos,
                                    blen,
                                    data=data,
                                    rpc_count=nchunks,
                                )
                            else:
                                data = yield from self.cache_state.read_back(pos, blen)
                                yield from self.client.write_sync(
                                    self.global_file,
                                    pos,
                                    blen,
                                    data=data,
                                    rpc_count=nchunks,
                                )
                        except FaultError:
                            attempts += 1
                            self.retries += 1
                            self._stat("retries")
                            if attempts <= self.policy.sync_retry_limit:
                                backoff = self.policy.sync_backoff_base * (
                                    self.policy.sync_backoff_factor ** (attempts - 1)
                                )
                                yield self.sim.timeout(backoff)
                                continue
                            self._give_up(req, pos, end)
                            break
                        attempts = 0
                        self.cache_state.mark_synced(pos, blen)
                        self.bytes_synced += blen
                        if self._io_stats is not None:
                            self._io_stats["bytes_flushed"] += blen
                        pos += blen
                finally:
                    self.busy_time += self.sim.now - t0
                if pos < end:
                    continue  # given up: re-queued, or failed
                self.requests_done += 1
                for stripe in req.stripes:
                    self.cache_state.release_stripe(stripe)
                req.grequest.complete()
        except Interrupt:
            # The job was torn down (aggregator crash).  The cache file and
            # its journal survive; recovery replays unflushed extents on the
            # next open.  Returning cleanly parks this daemon.
            return

    def _give_up(self, req: SyncRequest, pos: int, end: int) -> None:
        """Retries exhausted for the chunk at ``pos``: re-queue the remainder
        at the tail (later faults may have cleared) or fail the grequest."""
        if req.requeues < self.policy.sync_requeue_limit:
            self.requeues += 1
            self._stat("requeues")
            self.queue.put(
                SyncRequest(
                    pos,
                    end - pos,
                    req.grequest,
                    stripes=req.stripes,
                    requeues=req.requeues + 1,
                )
            )
            return
        self.failures += 1
        self._stat("sync_failures")
        if self._io_stats is not None:
            self._io_stats["bytes_lost"] += end - pos
        for stripe in req.stripes:
            self.cache_state.release_stripe(stripe)
        if req.grequest is not None:
            # Fleet runs label the error with the owning job so a failure in
            # a multi-job simulation is attributable (job_label is None on a
            # plain single-job Machine).
            job = getattr(self.machine, "job_label", None)
            whose = f"job {job}: " if job is not None else ""
            req.grequest.fail(
                SyncFailedError(
                    f"{whose}sync of [{pos}, {end}) on rank {self.rank} "
                    f"abandoned after {req.requeues} re-queues"
                )
            )

    def _stat(self, key: str) -> None:
        d = self._stats
        if d is not None:
            d[key] = d.get(key, 0) + 1
