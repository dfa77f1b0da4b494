"""PFS client: the per-rank endpoint issuing striped RPCs.

Two write paths mirror the two ways ROMIO drives the file system:

* :meth:`write` — the pipelined collective path.  The extent is split into
  per-target contiguous runs; all RPCs are issued concurrently and the call
  returns when the slowest completes.  Throughput is bounded by the client
  streaming channel, the NICs, each server's ingest stage and its RAID
  target — all shared max-min fairly.  The write is one callback chain —
  stripe locks, client overhead, then the RPCs (``_PipelinedWrite``), not a
  process per RPC: the caller waits on a single completion event.

* :meth:`write_sync_flat` — the synchronous independent path used by the
  cache sync thread (a blocking ``pwrite`` loop in one pthread): one
  outstanding RPC at a time, each paying the full client/kernel round trip
  (``sync_client_rtt``) on top of transfer and server time, raced against
  the fault schedule's sync-RPC watchdog when one is armed.  This is what
  limits a single flushing aggregator to ≈105 MB/s with 512 KiB chunks.
  It too is a callback chain, a step of its caller's: it calls the
  caller's ``on_done`` and hangs its abandon hooks on the caller's event.

Every entry point reads its stripe plan (runs, bulk groups, sync RPC split)
from the process-wide memo in :mod:`repro.pfs.layout`, which also rejects
a negative ``offset`` or ``nbytes``.

Paper correspondence: §II-B client path; the sync thread (§III-A)
flushes through exactly this endpoint.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

import numpy as np

from repro.faults.errors import PFSTimeoutError
from repro.pfs.filesystem import ParallelFileSystem, PFSFile
from repro.pfs.layout import pipelined_plan, sync_plan
from repro.sim.core import Event, SimError, at_kick, settle
from repro.sim.resources import abandon_wait


class PFSClient:
    """One rank's connection to the global file system."""

    def __init__(self, pfs: ParallelFileSystem, node_id: int, name: str = ""):
        self.pfs = pfs
        self.sim = pfs.sim
        self.node_id = node_id
        self.name = name or f"client.n{node_id}"
        cfg = pfs.cfg
        # The client's streaming channel: kernel + transport window that caps
        # a single client's rate regardless of NIC headroom.
        self.channel = pfs.fabric.make_link(f"{self.name}.chan", cfg.per_client_max_bw)
        # Each server's route: every flow to it crosses (channel, its ingest).
        self.routes = [(self.channel, pfs.ingest_link(si)) for si in range(len(pfs.servers))]
        self.bytes_written = 0
        self.bytes_read = 0
        self.rpcs = 0
        # Per-job accounting tag (fleet): threaded into every fabric flow and
        # server RPC this client issues.  None for single-job machines.
        self.tag: Optional[str] = None
        # Same-size runs to the same server start as one weighted flow
        # instead of one flow per run (see pfs.layout), where the fabric
        # bundles them.
        self._bulk = pfs.fabric.bundles

    # -- metadata ------------------------------------------------------------
    def create(self, path: str, stripe_size=None, stripe_count=None):
        """Generator: create a file (one MDS op) and return the PFSFile."""
        yield from self.pfs.mds.op("create")
        f = self.pfs.create(path, stripe_size, stripe_count)
        return f

    def open(self, path: str):
        yield from self.pfs.mds.op("open")
        f = self.pfs.lookup(path)
        f.open_count += 1
        return f

    def close(self, f: PFSFile):
        yield from self.pfs.mds.op("close")
        f.open_count = max(0, f.open_count - 1)

    # -- data: pipelined (collective) path ----------------------------------------
    def write(
        self,
        f: PFSFile,
        offset: int,
        nbytes: int,
        data: Optional[np.ndarray] = None,
        locking: bool = True,
    ) -> Optional[Event]:
        """Striped, pipelined write of one contiguous extent: a callback
        chain (:class:`_PipelinedWrite`) whose Event fires inline once every
        RPC is served (None for no bytes)."""
        shift, nruns, groups = pipelined_plan(
            f.layout, offset, nbytes, len(self.pfs.servers), self._bulk
        )
        if nbytes == 0:
            return None
        return _PipelinedWrite(self, f, offset, nbytes, data, locking, (shift, nruns, groups))

    # -- data: synchronous independent path (the sync thread's loop) ----------------
    def write_sync_flat(self, f: PFSFile, offset: int, nbytes: int, on_done, done: Event,
                        data: Optional[np.ndarray] = None, rpc_count: Optional[int] = None):
        """The blocking write, no locking, one RPC at a time (module
        docstring), as a step of the chain whose event is ``done``:
        ``on_done(None)`` when the last RPC is served, ``on_done(exc)`` with
        a :class:`PFSTimeoutError` when an armed watchdog wins a run's race
        (the server RPC is abandoned, not cancelled: the caller's retry
        rewrites its bytes identically).  ``rpc_count`` (default: one per
        target run) charges the round trips and server overheads of that
        many coalesced chunks.  Abandoning ``done``, the write takes no
        later step; a started flow or a raced RPC runs out, and an unraced
        server RPC is refused or abandoned with it."""
        shift, plan = sync_plan(f.layout, offset, nbytes, len(self.pfs.servers), rpc_count)
        if nbytes == 0:
            raise SimError("write_sync_flat requires nbytes > 0")
        w = _SyncWrite()
        w.client, w.f, w.offset, w.nbytes, w.data = self, f, offset, nbytes, data
        w.shift, w.plan, w.on_done, w.done = shift, plan, on_done, done
        done.abandon = settle  # while no server RPC of ours is waited on
        inj = self.pfs.injector  # attached only with the sync-RPC watchdog armed
        w.watchdog = inj.sync_rpc_timeout if inj is not None else 0.0
        w.decided = set()  # the runs whose race has a winner
        run_rpcs = plan[0][3]  # the first run: its round trip, then its RPC
        self.rpcs += run_rpcs
        self.sim.call_later(
            self.pfs.cfg.sync_client_rtt * run_rpcs, partial(w._race if w.watchdog else w._rpc, 0)
        )

    # -- reads -----------------------------------------------------------------
    def read(self, f: PFSFile, offset: int, nbytes: int):
        """Generator: striped pipelined read, the read half of data sieving's
        read-modify-write (its caller holds the window's stripe locks);
        returns data (or None if virtual)."""
        shift, nruns, groups = pipelined_plan(
            f.layout, offset, nbytes, len(self.pfs.servers), self._bulk
        )
        if nbytes == 0:
            return None
        yield self.sim.timeout(self.pfs.cfg.client_rpc_overhead * nruns)
        yield self.sim.all_of(
            [self.sim.process(self._rpc_read(shift, *group), name="rpc-r") for group in groups]
        )
        self.bytes_read += nbytes
        return f.read_back(offset, nbytes)

    def _rpc_read(self, shift: int, si: int, total: int, offsets: tuple):
        """A bundle of identical read RPCs from one server: one weighted flow
        plus one server-side service process per member run."""
        server = self.pfs.servers[si]
        self.rpcs += len(offsets)
        fill = min(total, 512 * 1024) / self.pfs.cfg.per_client_max_bw
        yield self.sim.timeout(fill)
        waits = [
            self.pfs.fabric.start_flow(
                server.fabric_node,
                self.node_id,
                total,
                extra_links=self.routes[si],
                weight=len(offsets),
                tag=self.tag,
            )
        ]
        for t_off in offsets:
            waits.append(
                self.sim.process(server.serve_read(t_off + shift, total, tag=self.tag), name="srv-r")
            )
        yield self.sim.all_of(waits)


class _PipelinedWrite(Event):
    """One :meth:`PFSClient.write` in flight, its own event: the stripe
    locks one at a time, the per-run client overhead, then every RPC at once
    (:meth:`_issue`) — per group, after its pipeline-fill latency, one flow
    of the group's weight and one server RPC per member run, proceeding
    concurrently (the server writes out data as it arrives), so an RPC costs
    ~max(network, device) plus the fill, not their sum.  It completes in the
    callback of the last of them to finish.  Abandoned, it gives the stripes
    back at the interrupt kick, where the generator's ``finally`` did; the
    RPCs already issued run out, releasing every server worker they took."""

    __slots__ = ("client", "f", "offset", "nbytes", "data", "plan", "stripes", "held", "pending")

    def __init__(self, client: PFSClient, f: PFSFile, offset, nbytes, data, locking, plan):
        Event.__init__(self, client.sim, "pfs-write")
        self.client, self.f, self.offset, self.nbytes, self.data = client, f, offset, nbytes, data
        self.plan = plan  # (shift, nruns, groups): pfs.layout.pipelined_plan
        self.held: list[int] = []
        self.stripes = iter(f.layout.stripes_covered(offset, nbytes) if locking else ())
        self._lock()

    def _lock(self, got: Optional[int] = None, _ev: Optional[Event] = None) -> None:
        if got is not None:
            self.held.append(got)
        for s in self.stripes:
            acquired = self.client.pfs.locks.acquire(self.f.file_id, s, exclusive=True)
            self.abandon = partial(self._abandon, acquired)
            acquired.callbacks.append(partial(self._lock, s))
            return
        client = self.client
        self.abandon = partial(self._abandon, None)
        client.sim.call_later(client.pfs.cfg.client_rpc_overhead * self.plan[1], self._issue)

    def _issue(self) -> None:
        if self._triggered:
            return
        client = self.client
        pfs = client.pfs
        _, nruns, groups = self.plan
        client.rpcs += nruns
        self.pending = nruns + len(groups)
        for si, total, offsets in groups:
            client.sim.call_later(
                min(total, 512 * 1024) / pfs.cfg.per_client_max_bw,
                partial(self._start, pfs.servers[si], total, offsets),
            )

    def _start(self, server, total: int, offsets: tuple) -> None:
        client = self.client
        pfs, shift, tag = client.pfs, self.plan[0], client.tag
        pfs.fabric.start_flow(
            client.node_id,
            server.fabric_node,
            total,
            extra_links=client.routes[server.server_id],
            weight=len(offsets),
            tag=tag,
            on_done=self._child,
        )
        for t_off in offsets:
            server.serve_write(t_off + shift, total, self._child, tag=tag)

    def _child(self) -> None:
        self.pending -= 1
        if self.pending or self._triggered:
            return
        if self.held:
            self._release()
        self.f.record_write(self.offset, self.nbytes, self.data)
        self.client.bytes_written += self.nbytes
        self.abandon = None
        self._fire_inline()

    def _release(self) -> None:
        locks, file_id = self.client.pfs.locks, self.f.file_id
        for s in self.held:
            locks.release(file_id, s, exclusive=True)

    def _abandon(self, lock: Optional[Event], _self: Event) -> None:
        if lock is None:
            settle(self)
        else:
            abandon_wait(lock, self)
        if self.held:
            at_kick(self.client.sim, self._release)


def timeout_error(server_id: int, timeout: float) -> PFSTimeoutError:
    """What a sync write raises when a run's RPC outlasts the watchdog."""
    return PFSTimeoutError(
        f"sync write RPC to server {server_id} exceeded the {timeout:g}s client timeout"
    )


class _SyncWrite:
    """One :meth:`PFSClient.write_sync_flat` in flight, its runs one at a
    time; that method fills it in and starts the first run.  Only the
    callbacks it schedules hold it, so it leaves no reference cycle behind
    once it has called ``on_done``."""

    __slots__ = ("client", "f", "offset", "nbytes", "data", "shift", "plan", "on_done", "done",
                 "watchdog", "decided")

    def _rpc(self, i: int, raced: bool = False) -> None:
        done = self.done
        if done._triggered and not raced:
            return
        client, (si, t_off, total, run_rpcs) = self.client, self.plan[i]
        server = client.pfs.servers[si]
        # The flow's end is the server RPC: refused there if ``done`` was abandoned.
        client.pfs.fabric.start_flow(
            client.node_id,
            server.fabric_node,
            total,
            extra_links=client.routes[si],
            tag=client.tag,
            on_done=partial(
                server.serve_write, t_off + self.shift, total,
                partial(self._finished if raced else self._next, i),
                None if raced else done, run_rpcs, client.tag,
            ),
        )

    def _next(self, i: int) -> None:
        done = self.done
        if i + 1 < len(self.plan):
            done.abandon = settle
            client, run_rpcs = self.client, self.plan[i + 1][3]
            client.rpcs += run_rpcs
            client.sim.call_later(
                client.pfs.cfg.sync_client_rtt * run_rpcs,
                partial(self._race if self.watchdog else self._rpc, i + 1),
            )
        else:
            done.abandon = None
            self.f.record_write(self.offset, self.nbytes, self.data)
            self.client.bytes_written += self.nbytes
            self.on_done(None)

    # -- the watchdog race (write_sync's ``any_of``), one per run -----------------
    def _race(self, i: int) -> None:
        if not self.done._triggered:
            sim = self.client.sim
            sim.call_soon(partial(self._rpc, i, True))
            sim.call_later(self.watchdog, partial(self._decide, i, True))

    def _finished(self, i: int) -> None:
        # The raced RPC is served: its process completes one hop later ...
        self.client.sim.call_soon(partial(self._decide, i, False))

    def _decide(self, i: int, timed_out: bool) -> None:
        # ... and the race, won by whoever came first, one hop after that.
        if i not in self.decided:
            self.decided.add(i)
            self.client.sim.call_soon(partial(self._decided, i, timed_out))

    def _decided(self, i: int, timed_out: bool) -> None:
        done = self.done
        if done._triggered:
            return
        if timed_out:
            done.abandon = None
            self.on_done(timeout_error(self.plan[i][0], self.watchdog))
        else:
            self._next(i)
