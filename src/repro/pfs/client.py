"""PFS client: the per-rank endpoint issuing striped RPCs.

Two write paths mirror the two ways ROMIO drives the file system:

* :meth:`write` — the pipelined collective path.  The extent is split into
  per-target contiguous runs; all RPCs are issued concurrently and the call
  returns when the slowest completes.  Throughput is bounded by the client
  streaming channel, the NICs, each server's ingest stage and its RAID
  target — all shared max-min fairly.  The RPCs run as one callback chain
  (``_issue_writes``), not a process per RPC: the caller waits on a single
  completion event, and only an RPC to a server with a fault injector
  attached takes the generator ``serve_write`` (counted in
  ``fallback_rpcs``).

* :meth:`write_sync` — the synchronous independent path used by the cache
  sync thread (a blocking ``pwrite`` loop in one pthread): one outstanding
  RPC at a time, each paying the full client/kernel round trip
  (``sync_client_rtt``) on top of transfer and server time.  This is what
  limits a single flushing aggregator to ≈105 MB/s with 512 KiB chunks.

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
from repro.sim.core import Event, SimError


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
        self.bytes_written = 0
        self.bytes_read = 0
        self.rpcs = 0
        # RPCs that took the generator ``serve_write`` because their server
        # had a fault injector attached when they were issued.
        self.fallback_rpcs = 0
        # Per-job accounting tag (fleet): threaded into every fabric flow and
        # server RPC this client issues.  None for single-job machines.
        self.tag: Optional[str] = None
        # Production stack: same-size runs to the same server start as one
        # weighted flow instead of one flow per run (see pfs.layout).
        self._bulk = pfs.fast_path

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
    ):
        """Generator: striped, pipelined write of one contiguous extent."""
        shift, nruns, groups = pipelined_plan(
            f.layout, offset, nbytes, len(self.pfs.servers), self._bulk
        )
        if nbytes == 0:
            return
        # Acquisition happens INSIDE the try so an interrupt that lands
        # mid-loop (aggregator crash) releases exactly the stripes acquired
        # so far instead of leaking them.
        held: list[int] = []
        try:
            if locking:
                for s in f.layout.stripes_covered(offset, nbytes):
                    yield from self.pfs.locks.acquire(f.file_id, s, exclusive=True)
                    held.append(s)
            yield self.sim.timeout(self.pfs.cfg.client_rpc_overhead * nruns)
            yield self._issue_writes(shift, nruns, groups)
        finally:
            for s in held:
                self.pfs.locks.release(f.file_id, s, exclusive=True)
        f.record_write(offset, nbytes, data)
        self.bytes_written += nbytes

    def _issue_writes(self, shift: int, nruns: int, groups: tuple) -> Event:
        """Issue every RPC of a planned write; the returned event fires
        inline in the callback of the last transfer or server RPC to finish.

        Per group, after its pipeline-fill latency: one flow of the group's
        weight and one server RPC per member run, proceeding concurrently
        (the server writes out data as it arrives), so an RPC costs
        ~max(network, device) plus the fill — not their sum.  Nothing here
        belongs to the waiting process: if it is interrupted the chain still
        runs out, releasing every server worker it took.
        """
        sim = self.sim
        pfs = self.pfs
        done = Event(sim, name="write")
        self.rpcs += nruns
        pending = nruns + len(groups)

        def _child(ev: Event) -> None:
            nonlocal pending
            if not ev._ok:
                if not done._fired:
                    done._fire_inline(ev._value, ok=False)
                return
            pending -= 1
            if not pending:
                done._fire_inline()

        def _start(server, total: int, offsets: tuple) -> None:
            flow = pfs.fabric.start_flow(
                self.node_id,
                server.fabric_node,
                total,
                extra_links=(self.channel, pfs.ingest_link(server.server_id)),
                weight=len(offsets),
                tag=self.tag,
            )
            flow.callbacks.append(_child)
            for t_off in offsets:
                if server.injector is None:
                    ev = server.serve_write_event(t_off + shift, total, tag=self.tag)
                else:
                    # A stall may be armed on this server: this RPC alone
                    # takes the generator, which can park behind the gate.
                    self.fallback_rpcs += 1
                    ev = sim.process(
                        server.serve_write(t_off + shift, total, tag=self.tag), name="srv-w"
                    )
                ev.callbacks.append(_child)

        for si, total, offsets in groups:
            sim.call_later(
                min(total, 512 * 1024) / pfs.cfg.per_client_max_bw,
                partial(_start, pfs.servers[si], total, offsets),
            )
        return done

    # -- data: synchronous independent path (the sync thread's loop) ----------------
    def write_sync(
        self,
        f: PFSFile,
        offset: int,
        nbytes: int,
        data: Optional[np.ndarray] = None,
        locking: bool = False,
        rpc_count: Optional[int] = None,
    ):
        """Generator: blocking write — one RPC at a time, full RTT each.

        ``rpc_count`` (default: one per target run) lets a caller that has
        coalesced several logical chunks into this extent charge the
        per-chunk round trips and server overheads for all of them, keeping
        batched simulation cost-faithful.
        """
        shift, plan = sync_plan(f.layout, offset, nbytes, len(self.pfs.servers), rpc_count)
        if nbytes == 0:
            return
        cfg = self.pfs.cfg
        stripes = f.layout.stripes_covered(offset, nbytes) if locking else ()
        held: list[int] = []
        try:
            for s in stripes:
                yield from self.pfs.locks.acquire(f.file_id, s, exclusive=True)
                held.append(s)
            for si, t_off, total, run_rpcs in plan:
                server = self.pfs.servers[si]
                self.rpcs += run_rpcs
                yield self.sim.timeout(cfg.sync_client_rtt * run_rpcs)
                watchdog = self._sync_watchdog()
                if watchdog is None:
                    yield from self._sync_rpc(server, t_off + shift, total, run_rpcs)
                else:
                    # Race the RPC against the client-side watchdog.  On a
                    # timeout the server op is abandoned, not cancelled —
                    # whatever it persists is rewritten identically by the
                    # caller's retry, so the data image stays consistent.
                    op = self.sim.process(
                        self._sync_rpc(server, t_off + shift, total, run_rpcs),
                        name="sync-rpc",
                    )
                    winner = yield self.sim.any_of([op, self.sim.timeout(watchdog)])
                    if winner is not op:
                        raise PFSTimeoutError(
                            f"sync write RPC to server {server.server_id} "
                            f"exceeded the {watchdog:g}s client timeout"
                        )
        finally:
            for s in held:
                self.pfs.locks.release(f.file_id, s, exclusive=True)
        f.record_write(offset, nbytes, data)
        self.bytes_written += nbytes

    def write_sync_flat(
        self,
        f: PFSFile,
        offset: int,
        nbytes: int,
        data: Optional[np.ndarray] = None,
        rpc_count: Optional[int] = None,
    ) -> Event:
        """Flat variant of :meth:`write_sync` for the production callback chains.

        No locking, no watchdog: the caller (the sync thread's flat loop)
        only enables this when no fault schedule exists, which also
        guarantees every server's ``injector`` is None for
        ``serve_write_event``.  The returned Event fires inline exactly
        where the generator's caller would resume; every RTT timeout, flow
        start, worker grant and jitter draw lands in the same event
        callback as on the generator path.
        """
        shift, plan = sync_plan(f.layout, offset, nbytes, len(self.pfs.servers), rpc_count)
        if nbytes == 0:
            raise SimError("write_sync_flat requires nbytes > 0")
        cfg = self.pfs.cfg
        servers = self.pfs.servers
        done = Event(self.sim, name="write-sync")
        sim = self.sim
        fabric = self.pfs.fabric

        def _start_run(i: int) -> None:
            run_rpcs = plan[i][3]
            self.rpcs += run_rpcs
            sim.call_later(cfg.sync_client_rtt * run_rpcs, lambda: _flow(i))

        def _flow(i: int) -> None:
            si, _t_off, total, _run_rpcs = plan[i]
            fl = fabric.start_flow(
                self.node_id,
                servers[si].fabric_node,
                total,
                extra_links=(self.channel, self.pfs.ingest_link(si)),
                tag=self.tag,
            )
            fl.callbacks.append(lambda _ev: _serve(i))

        def _serve(i: int) -> None:
            si, t_off, total, run_rpcs = plan[i]
            ev = servers[si].serve_write_event(
                t_off + shift, total, rpc_count=run_rpcs, tag=self.tag
            )
            ev.callbacks.append(lambda _ev: _next(i))

        def _next(i: int) -> None:
            if i + 1 < len(plan):
                _start_run(i + 1)
            else:
                f.record_write(offset, nbytes, data)
                self.bytes_written += nbytes
                done._fire_inline()

        _start_run(0)
        return done

    def _sync_rpc(self, server, target_offset: int, total: int, run_rpcs: int):
        """One blocking sync RPC: the transfer and the server's processing,
        issued back to back (no pipelining on the synchronous path)."""
        yield self.pfs.fabric.start_flow(
            self.node_id,
            server.fabric_node,
            total,
            extra_links=(self.channel, self.pfs.ingest_link(server.server_id)),
            tag=self.tag,
        )
        yield from server.serve_write(target_offset, total, rpc_count=run_rpcs, tag=self.tag)

    def _sync_watchdog(self) -> Optional[float]:
        """Client-side RPC timeout for the sync path, when fault injection
        configured one (``FaultSchedule.sync_rpc_timeout``); else None."""
        inj = getattr(self.pfs, "injector", None)
        if inj is not None and inj.sync_rpc_timeout > 0:
            return inj.sync_rpc_timeout
        return None

    # -- reads -----------------------------------------------------------------
    def read(self, f: PFSFile, offset: int, nbytes: int, locking: bool = False):
        """Generator: striped pipelined read; returns data (or None if virtual)."""
        shift, nruns, groups = pipelined_plan(
            f.layout, offset, nbytes, len(self.pfs.servers), self._bulk
        )
        if nbytes == 0:
            return None
        stripes = f.layout.stripes_covered(offset, nbytes) if locking else ()
        held: list[int] = []
        try:
            for s in stripes:
                yield from self.pfs.locks.acquire(f.file_id, s, exclusive=False)
                held.append(s)
            yield self.sim.timeout(self.pfs.cfg.client_rpc_overhead * nruns)
            yield self.sim.all_of(
                [self.sim.process(self._rpc_read(shift, *group), name="rpc-r") for group in groups]
            )
        finally:
            for s in held:
                self.pfs.locks.release(f.file_id, s, exclusive=False)
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
                extra_links=(self.channel, self.pfs.ingest_link(si)),
                weight=len(offsets),
                tag=self.tag,
            )
        ]
        for t_off in offsets:
            waits.append(
                self.sim.process(server.serve_read(t_off + shift, total, tag=self.tag), name="srv-r")
            )
        yield self.sim.all_of(waits)
