"""What only the reference stack runs.

``Machine(config, reference=True)`` builds the original stack as a unit,
and tier-1 holds production to it field for field.  Its engine and fabric
are written apart from production's, as clients of the Event protocol and
of the fabric's public surface, so a bug in how production fires an event
or advances or retires a flow is not also in the oracle that checks it
(``tests/test_reference.py`` reads that boundary off the source).  The rest
is production code with its shortcuts not taken: the engine grants no
resource inline (``inline_grants``) and releases each rank of a collective
on its own event (``shared_releases``), so a collective write walks round
by round, one process per rank; the fabric takes one flow per stripe run
and per MPI send (``bundles``).  Only :mod:`repro.machine` imports this:

* :class:`HeapSimulator` — a binary heap of ``(time, seq, event)``.
* :class:`NaiveFabric` — progressive filling (:func:`fill_rates`) of every
  flow at every change.
* :func:`flush` — the sync thread's and crash replay's flush loop
  (production's flat chain is ``cache.syncthread.Flush``), batch by batch
  (:func:`flush_batch`), as generators over the production objects:
  :func:`read_back` (:func:`read_local` from the cache file or
  :func:`read_log`), then :func:`write_sync` → :func:`_sync_rpc` →
  :func:`serve_write` → :func:`absorb`, a fault retried after a
  ``Timeout``.  Each takes every step — grant, timeout, flow start, jitter
  draw, watchdog race, release, backoff — in the event callback where its
  production chain (``Flush``, the read-back ``CacheJournal.reader`` binds,
  ``PFSClient.write_sync_flat``, ``DataServer.serve_write``) takes it, so
  only the number of events differs.  Entered with ``yield from``,
  a generator adds a frame but no event.

Paper correspondence: §III's sync thread (read back, then a synchronous
write per chunk) and §IV's fabric, as first written.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Any, Callable, Optional

from repro.faults.errors import FaultError
from repro.pfs.client import timeout_error
from repro.pfs.layout import sync_plan
from repro.sim.core import (
    AllOf,
    DeadlockError,
    Event,
    Process,
    SimError,
    Timeout,
    describe_blocked,
)

# -- the engine ---------------------------------------------------------------


class AnyOf(Event):
    """Fires when the first of ``events`` fires; its value is that event (a
    failing first fails it).  Built on the public Event protocol only: the
    watchdog race of :func:`write_sync` is its one user."""

    __slots__ = ("events",)

    def __init__(self, sim, events):
        super().__init__(sim, name="AnyOf")
        self.events = list(events)
        for ev in self.events:
            if ev.fired:
                self._on_child(ev)
            else:
                ev.callbacks.append(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if event.ok:
            self.succeed(event)
        else:
            self.fail(event.value)


class HeapSimulator:
    """The classic event list: a binary heap of ``(time, seq, event)``,
    popped one at a time, so what is due at one instant fires in the order
    it was scheduled.  A scheduled call is a :class:`Timeout`."""

    kind = "heapq"
    inline_grants = False
    shared_releases = False

    def __init__(self):
        self.now = 0.0
        self.events_fired = 0
        self.active_process: Optional[Process] = None
        self.profiler = None
        self.process_registry: Optional[dict] = None
        self.unwinding: Optional[Event] = None  # see repro.sim.core.at_kick
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0

    def event(self, name: str = "") -> Event:
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, gen, name: str = "") -> Process:
        return Process(self, gen, name=name)

    def all_of(self, events) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events) -> AnyOf:
        return AnyOf(self, events)

    def call_soon(self, fn: Callable[[], None]) -> None:
        self.call_later(0.0, fn)

    def call_later(self, delay: float, fn: Callable[[], None]) -> Timeout:
        timeout = Timeout(self, delay)
        timeout.callbacks.append(lambda _ev: fn())
        return timeout

    def call_all_later(self, delay: float, items: list) -> None:
        for item in items:
            if isinstance(item, Event):
                self._schedule(item, delay)
            else:
                self.call_later(delay, item)

    def call_at(self, when: float, fn: Callable[[], None]) -> None:
        event = Event(self, name="call").adopt(True, None)
        event.callbacks.append(lambda _ev: fn())
        self._schedule_at(event, when)

    def cancel(self, handle: Timeout) -> bool:
        """The call will not run; its event still fires, as a no-op."""
        handle.callbacks.clear()
        return True

    def _kick(self, name: str) -> Event:
        """The event that resumes a process (an Event like any other here)."""
        return Event(self, name=name)

    def _schedule(self, event: Event, delay: float) -> None:
        if not delay >= 0:
            raise SimError(f"cannot schedule before now or at NaN (delay={delay})")
        self._schedule_at(event, self.now + delay)

    def _schedule_at(self, event: Event, when: float) -> None:
        if not when >= self.now:
            raise SimError(f"cannot schedule before now or at NaN (when={when})")
        self._seq += 1
        heappush(self._heap, (when, self._seq, event))
        if self.profiler is not None:
            self.profiler.heap_sample(len(self._heap))

    @property
    def pending(self) -> int:
        return len(self._heap)

    def step(self) -> None:
        """Fire the next event: its callbacks, or its failure if none wait."""
        self.now, _seq, event = heappop(self._heap)
        event._fired = True
        self.events_fired += 1
        callbacks, event.callbacks = event.callbacks, []
        for cb in callbacks:
            cb(event)
        if not callbacks and not event._ok:
            raise event._value

    def run(self, until=None) -> Any:
        """Run until the heap drains, the clock passes ``until`` (a time),
        or ``until`` (an Event) fires, returning its value."""
        if isinstance(until, Event):
            while not until._fired:
                if not self._heap:
                    raise self._deadlock(until)
                self.step()
            if until._ok:
                return until._value
            raise until._value
        deadline = math.inf if until is None else float(until)
        if deadline != deadline:
            raise SimError(f"cannot run until NaN (until={until!r})")
        while self._heap and self._heap[0][0] <= deadline:
            self.step()
        if until is not None and self.now < deadline:
            self.now = deadline
        return None

    def _deadlock(self, sentinel: Event) -> SimError:
        msg = f"deadlock: event list empty but {sentinel!r} never fired"
        if self.process_registry is None:
            return SimError(msg)
        blocked = describe_blocked(self.process_registry)
        if blocked:
            msg += " — blocked processes: " + "; ".join(f"{n}: {r}" for n, r in blocked)
        return DeadlockError(msg, blocked)


# -- the fabric ---------------------------------------------------------------


class _Link:
    """A capacity flows cross: a NIC direction, a client channel, ..."""

    def __init__(self, name: str, capacity: float):
        self.name = name
        self.capacity = float(capacity)


class _Flow:
    """One transfer: ``weight`` identical members of ``nbytes`` each, of
    which ``remaining`` (per member) is left at ``rate`` (per member)."""

    def __init__(self, fid: int, links: list, nbytes: float, done, weight: int):
        self.fid = fid
        self.links = links
        self.remaining = float(nbytes)
        self.rate = 0.0
        self.done = done  # an Event to succeed, or a callable to call
        self.weight = weight
        # A sub-byte residue counts as done.
        self.threshold = max(1e-6, 1e-12 * self.remaining)


def fill_rates(flows: list) -> list[float]:
    """Max-min fair rates of ``flows`` (in order) by progressive filling:
    find the link with the smallest fair share, freeze its flows at it, take
    their share off every other link they cross, and repeat.

    A flow is anything with ``links`` (each with a ``capacity``) and a
    ``weight``: a bundle counts ``weight`` times in each fair share and
    subtracts it ``weight`` times.  Membership and the link scan follow
    ``flows``' order, so equal shares (symmetric NICs produce many) break
    ties the same way in every process.
    """
    rates = [0.0] * len(flows)
    residual: dict = {}
    live: dict = {}
    for i, flow in enumerate(flows):
        for link in flow.links:
            residual[link] = link.capacity
            live.setdefault(link, {})[i] = None
    while True:
        best_link = None
        best_share = math.inf
        for link, members in live.items():
            if not members:
                continue
            share = residual[link] / sum(flows[i].weight for i in members)
            if share < best_share:
                best_share = share
                best_link = link
        if best_link is None:  # every flow is frozen
            break
        # A residual can drift a few ULPs negative: never hand that out.
        best_share = max(best_share, 0.0)
        for i in list(live[best_link]):
            rates[i] = best_share
            for link in flows[i].links:
                if link is not best_link:
                    for _ in range(flows[i].weight):
                        residual[link] = max(0.0, residual[link] - best_share)
                    live[link].pop(i, None)
        live[best_link].clear()
    return rates


class NaiveFabric:
    """Every arrival, departure and capacity change advances every flow to
    now, re-rates every flow (:func:`fill_rates`) and arms a fresh wake
    Event at the soonest completion.  Tier-1 runs it against
    :class:`~repro.net.fabric.Fabric`: production moves no timestamp."""

    bundles = False

    def __init__(self, sim, num_nodes: int, nic_bw: float, latency: float, loopback_bw=None):
        self.sim = sim
        self.num_nodes = num_nodes
        self.nic_bw = float(nic_bw)
        self.latency = float(latency)
        self.loopback_bw = float(loopback_bw if loopback_bw is not None else 4 * nic_bw)
        self._out = [_Link(f"node{n}.out", nic_bw) for n in range(num_nodes)]
        self._in = [_Link(f"node{n}.in", nic_bw) for n in range(num_nodes)]
        self._loop = [_Link(f"node{n}.loop", self.loopback_bw) for n in range(num_nodes)]
        self._flows: dict[_Flow, None] = {}  # in start order
        self._next_fid = 0
        self._last_update = 0.0
        self._wake: Optional[Event] = None  # the armed wake; a superseded one is ignored
        self.bytes_moved = 0.0
        self.bytes_moved_by_tag: dict[str, float] = {}
        self.recomputes = 0
        self.wake_events = 0

    def make_link(self, name: str, capacity: float) -> _Link:
        return _Link(name, capacity)

    def start_flow(
        self, src_node, dst_node, nbytes, extra_links=(), weight=1, tag=None, on_done=None
    ) -> Optional[Event]:
        """``Fabric.start_flow``'s contract, ``weight`` a bundle of members."""
        if not 0 <= src_node < self.num_nodes:
            raise SimError(f"start_flow: no such src_node {src_node!r}")
        if not 0 <= dst_node < self.num_nodes:
            raise SimError(f"start_flow: no such dst_node {dst_node!r}")
        if not weight >= 1:
            raise SimError(f"start_flow: weight must be >= 1: {weight!r}")
        if not 0 <= nbytes < math.inf:
            raise SimError(f"start_flow: nbytes must be finite and >= 0: {nbytes!r}")
        done = on_done or self.sim.event(name=f"flow:{src_node}->{dst_node}")
        if nbytes <= 0:
            self._deliver(done)
            return None if on_done else done
        if src_node == dst_node:
            links = [self._loop[src_node], *extra_links]
        else:
            links = [self._out[src_node], self._in[dst_node], *extra_links]
        self._flows[_Flow(self._next_fid, links, nbytes, done, weight)] = None
        self._next_fid += 1
        self.bytes_moved += nbytes * weight
        if tag is not None:
            self.bytes_moved_by_tag[tag] = self.bytes_moved_by_tag.get(tag, 0.0) + nbytes * weight
        self._change()
        return None if on_done else done

    def set_node_bw_factor(self, node: int, factor: float) -> None:
        """Scale one endpoint's NIC capacity (both directions) by ``factor``."""
        if factor <= 0:
            raise SimError(f"bw factor must be > 0, got {factor}")
        if not 0 <= node < self.num_nodes:
            raise SimError(f"no such fabric endpoint {node}")
        self._out[node].capacity = self._in[node].capacity = self.nic_bw * factor
        self._change()

    @property
    def active_flows(self) -> int:
        return len(self._flows)

    def flow_rates(self) -> dict[int, float]:
        """Current rate per flow id — for tests."""
        self._advance()
        return {flow.fid: flow.rate for flow in self._flows}

    def _change(self) -> None:
        self._advance()
        self._rerate()
        self._arm_wake()

    def _advance(self) -> None:
        """Move every flow on from the last update to now."""
        dt = self.sim.now - self._last_update
        if dt > 0:
            for flow in self._flows:
                flow.remaining -= flow.rate * dt
        self._last_update = self.sim.now

    def _rerate(self) -> None:
        flows = list(self._flows)
        self.recomputes += 1
        profiler = self.sim.profiler
        if profiler is None:
            rates = fill_rates(flows)
        else:
            with profiler.timer("fabric.recompute"):
                rates = fill_rates(flows)
            profiler.count("fabric.recompute_flows", len(flows))
        for flow, rate in zip(flows, rates):
            flow.rate = rate

    def _arm_wake(self) -> None:
        """A fresh wake Event at the soonest completion, on every change
        (never scheduled when nothing can complete), floored at 1 ns so a
        pathological rate cannot stall the clock."""
        soonest = math.inf
        for flow in self._flows:
            if flow.remaining <= flow.threshold:
                soonest = 0.0
            elif flow.rate > 1e-12:
                soonest = min(soonest, flow.remaining / flow.rate)
        wake = self._wake = self.sim.event(name="fabric-wake")
        self.wake_events += 1
        if soonest < math.inf:
            wake.callbacks.append(self._on_wake)
            wake.succeed(delay=max(1e-9, soonest) if soonest > 0.0 else 0.0)

    def _on_wake(self, event: Event) -> None:
        """Retire, in start order, every flow that is done; re-rate and
        re-arm for the rest."""
        if event is not self._wake:
            return  # superseded by a newer change
        self._wake = None
        self._advance()
        for flow in [flow for flow in self._flows if flow.remaining <= flow.threshold]:
            del self._flows[flow]
            self._deliver(flow.done)
        if self._flows:
            self._rerate()
            self._arm_wake()

    def _deliver(self, done) -> None:
        """Complete a flow after the propagation latency."""
        if isinstance(done, Event):
            done.succeed(delay=self.latency)
        else:
            self.sim.call_later(self.latency, done)


# -- the sync thread's flush, as generators ----------------------------------


def flush(machine, client, pfs_file, journal, pos: int, end: int, ledger: str, faulted=None):
    """Generator: copy ``[pos, end)`` from ``journal``'s cache file to
    ``pfs_file`` batch by batch — :func:`flush_batch`, then note the batch
    in ``journal.synced`` and ``machine.io_stats[ledger]`` — retrying a
    :class:`FaultError` (``faulted()`` is told) with the journal policy's
    backoff.  Returns ``(end, None)``, or the position of the batch that
    spent the retry budget and the error that did."""
    policy = journal.policy
    chunk = policy.sync_chunk
    batch = chunk * machine.config.flush_batch_chunks
    attempts = 0
    while pos < end:
        blen = min(batch, end - pos)
        try:
            yield from flush_batch(client, pfs_file, journal, pos, blen, -(-blen // chunk))
        except FaultError as exc:
            attempts += 1
            if faulted is not None:
                faulted()
            if attempts > policy.sync_retry_limit:
                return pos, exc
            yield machine.sim.timeout(
                policy.sync_backoff_base * (policy.sync_backoff_factor ** (attempts - 1))
            )
            continue
        attempts = 0
        journal.synced.add(pos, pos + blen)
        machine.io_stats[ledger] += blen
        pos += blen
    return pos, None


def flush_batch(client, pfs_file, journal, pos: int, blen: int, nchunks: int):
    """Generator: one batch of :func:`flush` — ``[pos, pos + blen)`` read back
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
    overhead, cache absorb (``DataServer.serve_write`` has the contract,
    the refusal of a bad size or count included)."""
    if not 0 <= nbytes < math.inf:
        raise SimError(f"serve_write: nbytes must be finite and >= 0, got {nbytes!r}")
    if not rpc_count >= 1:
        raise SimError(f"serve_write: rpc_count must be >= 1, got {rpc_count!r}")
    workers = server.workers
    if not workers.try_acquire():
        yield workers.request()
    try:
        if server.injector is not None:
            yield from server.injector.server_gate(server.server_id)
        overhead = server.cfg.rpc_overhead * rpc_count
        if server.rng is not None and server.cfg.jitter_sigma > 0:
            overhead *= server.draw_rpc_jitter()
        yield server.sim.timeout(overhead)
        yield from absorb(server.cache, nbytes)
        server.rpcs_served += rpc_count
        server.account(tag, nbytes, rpc_count)
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
            cache.waiters.append(ev)
            yield ev
            continue
        chunk = min(remaining, room)
        cache.dirty += chunk
        remaining -= chunk
        cache.ensure_daemon()
