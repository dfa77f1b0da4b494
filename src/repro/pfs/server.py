"""Storage data servers.

Each data server owns one RAID6 target and a small worker pool (BeeGFS
worker threads): RPC processing overlaps across workers but the device
serialises.  Service times carry a lognormal jitter factor — this is the
load-imbalance "one server is momentarily slow" effect that makes one
aggregator the straggler and inflates the post-write global synchronisation
(paper Section II-B and the Fig. 8 outlier discussion).

The RAID target uses a *stream table*: firmware and the I/O elevator detect
up to ``max_streams`` interleaved sequential streams, so concurrent
aggregators each writing their own contiguous file domain do not pay a full
seek per request — only genuinely random access does.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Optional

from repro.config import PFSConfig
from repro.hw.devices import StorageDevice
from repro.sim.core import Event, SimError, Simulator
from repro.sim.resources import Resource, abandon_grant, abandon_queued
from repro.sim.rng import RngStreams


class RaidTarget(StorageDevice):
    """RAID6 group with multi-stream sequential detection."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        cfg: PFSConfig,
        rng: Optional[RngStreams] = None,
        max_streams: Optional[int] = None,
    ):
        super().__init__(sim, name, cfg.hdd.capacity)
        self.stream_bw = cfg.hdd.stream_bw
        self.seek_time = cfg.hdd.seek_time
        self.sequential_seek_factor = cfg.hdd.sequential_seek_factor
        self.max_streams = max_streams if max_streams is not None else cfg.server_max_streams
        self.rng = rng
        self.jitter_sigma = cfg.jitter_sigma
        self._jitter = None  # cached draw callable (lazy: rng may be swapped)
        self._streams: dict[int, int] = {}  # tail offset -> lru tick
        self._tick = 0
        self.seeks = 0

    def service_time(self, offset: int, nbytes: int, is_write: bool) -> float:
        self._tick += 1
        sequential = offset in self._streams
        if sequential:
            del self._streams[offset]
        else:
            self.seeks += 1
            if len(self._streams) >= self.max_streams:
                # Evict the least recently extended stream.
                lru = min(self._streams, key=self._streams.get)
                del self._streams[lru]
        self._streams[offset + nbytes] = self._tick
        seek = self.seek_time * (self.sequential_seek_factor if sequential else 1.0)
        base = seek + nbytes / self.stream_bw
        if self.jitter_sigma > 0.0 and self.rng is not None:
            jitter = self._jitter
            if jitter is None:
                jitter = self._jitter = self.rng.lognormal_fn(
                    f"{self.name}.jitter", self.jitter_sigma
                )
            base *= jitter()
        return base


class WriteBackCache:
    """Server-side dirty buffer: absorbs acked writes, drains to the target.

    A write RPC completes once its bytes fit under the dirty limit; the
    target's write-back chain streams dirty data to it in ``drain_chunk``
    units (the elevator makes the drain effectively sequential).  When the
    cache is full, writers block until the drain frees room — sustained load
    therefore settles to the disk rate while bursts and round-synchronised
    collective patterns are decoupled from disk-arm scheduling.

    Blocked writers wait in one FIFO: a ``DataServer._serve_write_absorb``
    continuation is a bare callable, a waiting generator the ``Event`` it
    yielded.  A written chunk that finds waiters takes the list and schedules
    one :meth:`_wake`, which resumes them *in place* and in order for as
    long as there is room, and puts the rest back unwoken — so a waiter that
    could not have taken a byte is never resumed to find that out
    (docs/PERFORMANCE.md, "Write-back stages").
    """

    def __init__(self, sim: Simulator, target: RaidTarget, limit: int, drain_chunk: int):
        self.sim = sim
        self.target = target
        self.limit = int(limit)
        self.drain_chunk = int(drain_chunk)
        self.dirty = 0
        self.waiters: list = []  # FIFO of Events and flat continuations
        self._daemon_running = False
        self._drain_pos = 0

    def ensure_daemon(self) -> None:
        if not self._daemon_running and self.dirty > 0:
            self._daemon_running = True
            self.sim.call_soon(partial(self.target.write_back, self._retire))

    def _retire(self, chunk: int) -> Optional[tuple[int, int]]:
        """``StorageDevice.write_back``'s ``retire``: waiters go to one :meth:`_wake`."""
        if chunk:
            self._drain_pos += chunk
            self.dirty -= chunk
            if self.waiters:
                waiters, self.waiters = self.waiters, []
                self.sim.call_soon(partial(self._wake, waiters))
        dirty = self.dirty
        if dirty > 0:
            return self._drain_pos, self.drain_chunk if self.drain_chunk < dirty else dirty
        self._daemon_running = False
        return None

    def _wake(self, waiters: list) -> None:
        """Resume ``waiters`` in FIFO order while the cache has room.

        A resumed waiter that is still short re-queues itself on the (new)
        ``waiters`` list; the unwoken tail goes back behind those, which is
        the order everyone re-queueing for themselves would have produced.
        A waiter for the cache to empty takes no room and may be left in the
        tail: the tail only exists while ``dirty >= limit > 0``, when it
        would have re-queued anyway.
        """
        woken = 0
        for waiter in waiters:
            if self.limit - self.dirty <= 0:
                self.waiters += waiters[woken:]
                return
            woken += 1
            if waiter.__class__ is Event:
                waiter._fire_inline()
            else:
                waiter()


class DataServer:
    """One BeeGFS storage server: worker pool, write-back cache, RAID target."""

    def __init__(
        self,
        sim: Simulator,
        server_id: int,
        fabric_node: int,
        cfg: PFSConfig,
        rng: Optional[RngStreams] = None,
        num_workers: int = 4,
    ):
        self.sim = sim
        self.server_id = server_id
        self.fabric_node = fabric_node
        self.cfg = cfg
        self.rng = rng
        self.workers = Resource(sim, capacity=num_workers, name=f"srv{server_id}.workers")
        self.target = RaidTarget(sim, f"srv{server_id}.raid", cfg, rng)
        self.cache = WriteBackCache(
            sim, self.target, cfg.server_cache_bytes, cfg.server_drain_chunk
        )
        self.rpcs_served = 0
        # Per-tag RPC/byte accounting (fleet: one tag per job).  Untagged
        # RPCs — the entire single-job world — never touch these dicts.
        self.rpcs_by_tag: dict[str, int] = {}
        self.bytes_by_tag: dict[str, int] = {}
        self.injector = None  # set by repro.faults when a stall targets us
        self._rpc_jitter = None  # cached draw callable (lazy: rng may be swapped)

    def draw_rpc_jitter(self) -> float:
        jitter = self._rpc_jitter
        if jitter is None:
            jitter = self._rpc_jitter = self.rng.lognormal_fn(
                f"srv{self.server_id}.rpc", self.cfg.jitter_sigma
            )
        return jitter()

    def account(self, tag, nbytes: int, rpc_count: int) -> None:
        if tag is not None:
            self.rpcs_by_tag[tag] = self.rpcs_by_tag.get(tag, 0) + max(1, rpc_count)
            self.bytes_by_tag[tag] = self.bytes_by_tag.get(tag, 0) + int(nbytes)

    def serve_write(self, target_offset: int, nbytes: int, on_done, done=None, rpc_count=1,
                    tag=None, granted: bool = False) -> None:
        """Process one write RPC — worker, stall gate, overhead, cache
        absorb — as a callback chain that calls ``on_done()`` where the
        worker is released (``StorageDevice.write_flat``'s contract).

        ``rpc_count > 1`` accounts for a batch of logical RPCs coalesced by
        the caller: per-RPC overhead is charged for each.  Every step lands
        in the event callback where :func:`repro.reference.serve_write`
        takes it: the worker grant, the stall gate (a stalled server parks
        the RPC while holding the worker: head-of-line blocking), the
        post-grant jitter draw, the absorb/throttle loop and the release.
        A free worker is taken and the overhead charged in place; a queued
        grant and a stalled RPC's re-check of the gate come back here
        (``granted``).  Without ``done`` the RPC runs out whatever becomes
        of its caller.  An RPC whose ``done`` has fired is refused; abandoning
        ``done``, the caller's chain event, withdraws a queued worker request
        or releases a held worker at the interrupt kick, and stops every
        later step.  A negative or NaN ``nbytes`` and an ``rpc_count`` below
        one raise a :class:`SimError` naming them.
        """
        workers = self.workers
        if granted:
            if done is not None and done._triggered:  # abandoned while queued or stalled
                return
        elif not 0 <= nbytes < math.inf:
            raise SimError(f"serve_write: nbytes must be finite and >= 0, got {nbytes!r}")
        elif not rpc_count >= 1:
            raise SimError(f"serve_write: rpc_count must be >= 1, got {rpc_count!r}")
        elif done is not None and done._triggered:  # refused: its caller was abandoned
            return
        elif workers.inline_grants and workers._in_use < workers.capacity and not workers._waiters:
            workers._in_use += 1
        else:
            grant = partial(self.serve_write, target_offset, nbytes, on_done, done, rpc_count,
                            tag, True)
            workers.request_call(grant)
            if done is not None:
                done.abandon = partial(abandon_queued, workers, grant)
            return
        if done is not None:
            done.abandon = partial(abandon_grant, workers)
        if self.injector is not None:
            wait = self.injector.stall_wait(self.server_id)
            if wait > 0.0:
                if wait < math.inf:
                    self.sim.call_later(wait, partial(self.serve_write, target_offset, nbytes,
                                                      on_done, done, rpc_count, tag, True))
                return
        overhead = self.cfg.rpc_overhead * rpc_count
        if self.rng is not None and self.cfg.jitter_sigma > 0:
            overhead *= self.draw_rpc_jitter()
        self.sim.call_later(
            overhead,
            partial(self._serve_write_absorb, nbytes, on_done, done, rpc_count, int(nbytes), tag),
        )

    def _serve_write_absorb(
        self, nbytes: int, on_done, done: Optional[Event], rpc_count: int, left: int, tag
    ) -> None:
        # Account the RPC's bytes dirty, continued across throttle waits by
        # queueing this call's continuation on the cache's waiter FIFO.
        # An abandoned RPC's continuation, woken, takes no room: the wake
        # passes over it as over an interrupted generator's event.
        if done is not None and done._triggered:
            return
        cache = self.cache
        while left > 0:
            room = cache.limit - cache.dirty
            if room <= 0:
                cache.waiters.append(
                    partial(self._serve_write_absorb, nbytes, on_done, done, rpc_count, left, tag)
                )
                return
            chunk = left if left < room else room
            cache.dirty += chunk
            left -= chunk
            if not cache._daemon_running:
                cache.ensure_daemon()
        self.rpcs_served += rpc_count
        self.account(tag, nbytes, rpc_count)
        workers = self.workers
        if workers._waiters or not workers._in_use:
            workers.release()
        else:
            workers._in_use -= 1
        on_done()

    def serve_read(self, target_offset: int, nbytes: int, tag: Optional[str] = None):
        """Generator: process one read RPC — worker, stall gate, overhead,
        the target's read."""
        if not self.workers.try_acquire():
            yield self.workers.request()
        try:
            if self.injector is not None:
                yield from self.injector.server_gate(self.server_id)
            yield self.sim.timeout(self.cfg.rpc_overhead)
            yield from self.target.read(target_offset, nbytes)
            self.rpcs_served += 1
            self.account(tag, nbytes, 1)
        finally:
            self.workers.release()
