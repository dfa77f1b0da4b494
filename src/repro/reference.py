"""What only the reference stack runs.

``Machine(config, reference=True)`` builds the original stack as a unit,
and tier-1 holds production to it field for field.  Most of that stack is
the production code with its shortcuts not taken: the heapq engine grants
no resource inline (``Simulator.inline_grants``) and releases every rank of
a collective on its own event (``Simulator.shared_releases``), so every
collective write walks round by round, one process per rank;
:class:`NaiveFabric` takes one flow per stripe run and per MPI send
(``bundles``).  What the production modules
do not contain at all is here, and only :mod:`repro.machine` imports it:

* :class:`NaiveFabric` — the original full-recompute allocator.
* :func:`flush_batch` — one batch of the sync thread's flush
  (:func:`repro.cache.syncthread.flush`) as generators over the production
  objects: :func:`read_back` (:func:`read_local` from the cache file or
  :func:`read_log`), then :func:`write_sync` → :func:`_sync_rpc` →
  :func:`serve_write` → :func:`absorb`.  Each takes every step — grant,
  timeout, flow start, jitter draw, watchdog race, release — in the event
  callback where its production chain (``CacheJournal.read_back_event``,
  ``PFSClient.write_sync_flat``, ``DataServer.serve_write``) takes it, so
  only the number of events differs.  Entered with ``yield from``,
  a generator adds a frame but no event.

Paper correspondence: §III's sync thread (read back, then a synchronous
write per chunk) and §IV's fabric, as first written.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.net.fabric import _EPS, _INF, Fabric, Flow, Link
from repro.pfs.client import timeout_error
from repro.pfs.layout import sync_plan
from repro.sim.core import Event

# -- the fabric ---------------------------------------------------------------


class NaiveFabric(Fabric):
    """The original full-recompute allocator: the reference stack's fabric.

    Every arrival, departure, and capacity change advances the clock and
    re-runs progressive filling — the readable dict loop below — over **all**
    active flows, O(links × flows) per filling pass, and allocates a fresh
    wake Event.  Clients start one flow per stripe run on it.  Tier-1 runs
    it against :class:`~repro.net.fabric.Fabric` to prove the production
    allocator changes no simulated timestamp.
    """

    bundles = False
    _wake: Optional[Event] = None  # the armed wake; a superseded one is ignored

    def _change(self, links: Iterable[Link], flow: Optional[Flow] = None) -> None:
        self._advance()
        self._recompute_touched(self._dirty)
        self._arm_wake()

    def _force_flush(self) -> None:  # nothing is ever deferred
        pass

    def _recompute_touched(self, dirty: dict[Link, None]) -> bool:
        """Every change, a departure included, re-rates every active flow."""
        self._refill(self._flows, len(self._flows))
        return True

    def _fill(self, flows: Iterable[Flow]) -> None:
        """Max-min fair allocation of ``flows`` by progressive filling.

        All iteration is over insertion-ordered dicts, so bottleneck
        tie-breaks (symmetric NICs produce many equal shares) resolve the
        same way in every process and the allocation is fully deterministic.
        """
        unfrozen: dict[Flow, None] = dict.fromkeys(flows)
        residual = {link: link.capacity for flow in unfrozen for link in flow.links}
        live = {
            link: dict.fromkeys(f for f in link.flows if f in unfrozen)
            for link in residual
        }
        while unfrozen:
            best_link = None
            best_share = _INF
            for link, members in live.items():
                if not members:
                    continue
                # Bundle members count individually (an exact int divisor).
                share = residual[link] / sum(f.weight for f in members)
                if share < best_share:
                    best_share = share
                    best_link = link
            if best_link is None:
                break
            # Clamp against accumulated floating-point error: a residual can
            # drift a few ULPs negative, which would hand out negative rates
            # and stall the completion clock.
            best_share = max(best_share, 0.0)
            for flow in list(live[best_link]):
                flow.rate = best_share
                unfrozen.pop(flow, None)
                for link in flow.links:
                    if link is not best_link:
                        if flow.weight == 1:
                            residual[link] = max(0.0, residual[link] - best_share)
                        else:
                            # One clamped subtraction per bundle member —
                            # exactly what `weight` separate flows would do
                            # (equal-share subtractions commute, so member
                            # interleaving cannot matter).
                            r = residual[link]
                            for _ in range(flow.weight):
                                r = max(0.0, r - best_share)
                            residual[link] = r
                        live[link].pop(flow, None)
            live[best_link].clear()

    def _arm_wake(self) -> None:
        # Faithful to the original: allocate a fresh wake event on *every*
        # change, even when no flow can complete (soonest == inf) and the
        # event will never be scheduled.  :meth:`Fabric._arm_wake` fixes
        # this churn; the reference keeps it so the regression test can
        # count the difference.
        soonest = _INF
        for flow in self._flows:
            if flow.remaining <= flow.threshold:
                soonest = 0.0
            elif flow.rate > _EPS:
                t = flow.remaining / flow.rate
                if t < soonest:
                    soonest = t
        wake = self.sim.event(name="fabric-wake")
        self._wake = wake
        self.wake_events += 1
        if soonest is not _INF:
            wake.callbacks.append(self._on_wake)
            wake.succeed(delay=max(1e-9, soonest) if soonest > 0.0 else 0.0)

    def _on_wake(self, event: Event) -> None:
        if event is not self._wake:
            return  # superseded by a newer reschedule
        self._wake = None
        self._wake_due(self._wake_gen)


# -- the sync thread's flush, as generators ----------------------------------


def flush_batch(client, pfs_file, journal, pos: int, blen: int, nchunks: int):
    """Generator: one batch of the flush — ``[pos, pos + blen)`` read back
    from ``journal``'s cache, then written to ``pfs_file`` with one
    synchronous RPC per ``nchunks`` chunk."""
    data = yield from read_back(journal, pos, blen)
    yield from write_sync(client, pfs_file, pos, blen, data=data, rpc_count=nchunks)


def read_back(journal, pos: int, blen: int):
    """Generator returning the cached bytes of ``[pos, pos+blen)``: from the
    journal's NVMM log, or its cache file."""
    if journal.wal is not None:
        return read_log(journal.wal, pos, blen)
    return read_local(journal.local_file.fs, journal.local_file, pos, blen)


def read_local(fs, f, offset: int, nbytes: int):
    """Generator returning local file ``f``'s bytes at ``[offset, offset +
    nbytes)`` (None for virtual files): the page-cached part at memory
    speed, the rest off the SSD (``LocalFileSystem.read_split``)."""
    cached, uncached = fs.read_split(f, offset, nbytes)
    if cached:
        yield fs.sim.timeout(cached / fs.node.config.ram.memcpy_bw)
    if uncached:
        yield from fs.node.ssd.read(offset + cached, uncached)
    return fs.gather(f, offset, nbytes)


def read_log(wal, pos: int, blen: int):
    """Generator returning the log's bytes for ``[pos, pos+blen)`` (None if
    no payloads were stored): one device-speed load; torn records are
    CRC-skipped."""
    if blen > 0:
        yield from wal.device.read(pos % wal.device.capacity_bytes, blen)
    return wal.gather(pos, blen)


def write_sync(client, f, offset: int, nbytes: int, data=None, rpc_count: Optional[int] = None):
    """Generator: ``client``'s blocking write, no locking — one RPC at a
    time, each after a full round trip, raced against the sync-RPC watchdog
    when one is armed (``PFSClient.write_sync_flat`` has the contract)."""
    shift, plan = sync_plan(f.layout, offset, nbytes, len(client.pfs.servers), rpc_count)
    if nbytes == 0:
        return
    sim, inj = client.sim, client.pfs.injector
    watchdog = inj.sync_rpc_timeout if inj is not None else 0.0
    for si, t_off, total, run_rpcs in plan:
        server = client.pfs.servers[si]
        client.rpcs += run_rpcs
        yield sim.timeout(client.pfs.cfg.sync_client_rtt * run_rpcs)
        if not watchdog:
            yield from _sync_rpc(client, server, t_off + shift, total, run_rpcs)
        else:
            # On a timeout the server op is abandoned, not cancelled.
            op = sim.process(
                _sync_rpc(client, server, t_off + shift, total, run_rpcs), name="sync-rpc"
            )
            winner = yield sim.any_of([op, sim.timeout(watchdog)])
            if winner is not op:
                raise timeout_error(si, watchdog)
    f.record_write(offset, nbytes, data)
    client.bytes_written += nbytes


def _sync_rpc(client, server, target_offset: int, total: int, run_rpcs: int):
    """One blocking sync RPC: the transfer and the server's processing,
    issued back to back (no pipelining on the synchronous path)."""
    yield client.pfs.fabric.start_flow(
        client.node_id,
        server.fabric_node,
        total,
        extra_links=(client.channel, client.pfs.ingest_link(server.server_id)),
        tag=client.tag,
    )
    yield from serve_write(server, target_offset, total, rpc_count=run_rpcs, tag=client.tag)


def serve_write(
    server, target_offset: int, nbytes: int, rpc_count: int = 1, tag: Optional[str] = None
):
    """Generator: ``server`` processes one write RPC — worker, stall gate,
    overhead, cache absorb (``DataServer.serve_write`` has the contract)."""
    workers = server.workers
    if not workers.try_acquire():
        yield workers.request()
    try:
        if server.injector is not None:
            yield from server.injector.server_gate(server.server_id)
        overhead = server.cfg.rpc_overhead * max(1, rpc_count)
        if server.rng is not None and server.cfg.jitter_sigma > 0:
            overhead *= server._draw_rpc_jitter()
        yield server.sim.timeout(overhead)
        yield from absorb(server.cache, nbytes)
        server.rpcs_served += max(1, rpc_count)
        server._account(tag, nbytes, rpc_count)
    finally:
        workers.release()


def absorb(cache, nbytes: int):
    """Generator: account ``nbytes`` dirty in write-back ``cache``, waiting
    in its FIFO (as an Event) while it is over its limit."""
    remaining = int(nbytes)
    while remaining > 0:
        room = cache.limit - cache.dirty
        if room <= 0:
            ev = Event(cache.sim, name="srvcache-throttle")
            cache._waiters.append(ev)
            yield ev
            continue
        chunk = min(remaining, room)
        cache.dirty += chunk
        remaining -= chunk
        cache._ensure_daemon()
