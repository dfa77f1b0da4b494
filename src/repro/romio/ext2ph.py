"""The extended two-phase collective write (``ADIOI_Exch_and_write``).

Port of the algorithm the paper describes in Section II-A, step for step:

1. all ranks exchange access-pattern offsets (start/end),
2. the global region is split into file domains over the aggregators,
3. every rank derives which aggregators its data maps to,
4. per round (``collective buffer size`` worth of each domain):
   a dissemination ``MPI_Alltoall`` (who sends how much this round),
   the data exchange (``MPI_Isend``/``Irecv``/``Waitall``),
   aggregator assembly into the collective buffer (memcpy),
   and ``ADIO_WriteContig`` of the covered segments,
5. a final ``MPI_Allreduce`` of error codes (``post_write``).

Two exchange fidelities share this control flow:

* ``flow`` — every message is simulated individually and real payload bytes
  (:mod:`repro.payload`, generated by each sender for the file offsets it
  sends) are shuffled and assembled, so the written file is verifiable
  byte-for-byte.  Used at test scale.
* ``model`` — per-round costs are precomputed vectorised over all rounds
  (per-NIC hot-spot bytes, message counts) and charged through
  arrival-synchronised ``timed`` collectives.  Used at the paper's
  512-rank scale where per-message simulation would be prohibitive.

Both preserve the global synchronisation structure: every round begins with
an all-ranks collective, so a slow aggregator (device jitter, cache flush
backlog) stalls everyone — the effect the paper measures as
``shuffle_all2all``/``post_write`` cost.  Both count the bytes their
aggregators hand to ``write_contig``: a call that completes must have handed
over its table's coverage, each byte once, or it raises
(:func:`_check_conservation`).

**Only writers wake** (model fidelity; docs/PERFORMANCE.md has the argument
and the numbers — and, under "Plan once, park once", the ladder this
replaced).  ROMIO derives a call's plan once and every process reads it; so
here: the first rank to arrive fills in the call's constants
(:func:`_open_call`), the offset exchange's release the table, domains and
per-round costs — the latter from a process-wide memo keyed by the call's
*shape* (:class:`_ModelMemo`), so the files of a run, the points of a sweep
and the jobs of a fleet share one plan.  Only an aggregator that receives
bytes in a round decides anything in it.  Where the path is certain before
any offset is known (:func:`fast_paths`) — model collectives on the
production stack, no fault injector, ``romio_cb_write=enable`` — every rank
arrives at the offset exchange once and waits, and the call runs on one
clock (:class:`CallClock`) that advances round by round in closed form: a
writer is resumed at the instant its buffer is assembled, writes, reports
back and waits for its next writing round; every other process is resumed
once, by the post-write release.  "Process" is a *class* of ranks: a phased
workload runs its non-aggregators as one (``workloads.phases``), which
arrives once with the weight of them all.  Everything else — the reference
stack (``Machine(reference=True)``), fault machines, flow fidelity,
``romio_cb_write=automatic`` — walks round by round, one process per rank,
and is the oracle the clock is tested against
(tests/romio/test_call_clock.py, tests/mpi/test_rank_classes.py).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.access import (
    AccessTable,
    RankAccess,
    coverage_in_window,
    ranks_interleaved,
)
from repro.intervals import IntervalSet
from repro.mpi.collectives import op_max
from repro.payload import gather_payload
from repro.romio.fd import ADIOFile, CollectiveCallState
from repro.romio.profiling import Profiler
from repro.sim.core import Event, SimError

_TAG_DATA = 1 << 20  # below the collective tag range, above user tags


def is_interleaved(pairs) -> bool:
    """ROMIO's check over per-rank ``(st_offset, end_offset)`` pairs: any
    rank's start at or before the previous ranks' furthest end."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    return ranks_interleaved(pairs[:, 0], pairs[:, 1])


def write_strided_coll(fd: ADIOFile, rank: int, access: RankAccess, prof: Profiler):
    """``ADIOI_GEN_WriteStridedColl`` for one rank, or the class of ranks it
    stands for: joins the collective call and returns the generator of its
    part in it, which returns the bytes the rank contributed."""
    comm = fd.comm
    call = fd.call_state()
    members = comm.members[rank]
    weight = 1
    if members:
        weight += len(members)
        # A class that only follows; each member's view is the table's own.
        if fd.is_aggregator(rank):
            comm.alone(rank, "an aggregator's part in write_all")
        if fd.exchange_mode == "flow":
            comm.alone(rank, "the flow-fidelity allgather of offsets")
        if access.table is None:
            comm.alone(rank, "a write_all access that is not a table view")
    if rank in call.accesses:
        raise SimError(f"{fd.path}: rank {rank} arrives twice at collective call {call.index}")
    if comm.leaders[rank] != rank:
        raise SimError(
            f"{fd.path}: rank {rank} arrives at collective call {call.index} on its own, "
            f"off the call of rank {comm.leaders[rank]}, which arrives for its class"
        )
    call.accesses[rank] = access
    call.arrived += weight
    if not call.opened:
        _open_call(fd, call)
    if call.park:
        return _write_on_clock(fd, rank, access, call, prof)
    return _write_live(fd, rank, access, call, prof)


def _write_on_clock(fd: ADIOFile, rank: int, access: RankAccess, call, prof: Profiler):
    """A process's part in a call that runs on its clock: arrive at the
    offset exchange, then wake only to write — at the instant each buffer
    this rank receives is assembled — and once when the call is over."""
    clock = call.clock
    r = yield clock.arrive(rank, prof)
    if r is not None:
        domain = call.domains[fd.agg_index[rank]]
        cb = fd.hints.cb_buffer_size
        starts, ends = call.merged_cov
        write_contig = fd.driver.write_contig
        while r is not None:
            prof.lap("memcpy", clock.t_x[r])
            lo = domain.start + r * cb
            hi = min(domain.end, lo + cb)
            t0 = prof.mark()
            for s, e in coverage_in_window(starts, ends, lo, hi):
                yield from write_contig(fd, rank, s, e - s, None)
                call.written += e - s
            prof.lap("write", t0)
            r = yield clock.report(rank, r)
    return access.total_bytes


def _write_live(fd: ADIOFile, rank: int, access: RankAccess, call, prof: Profiler):
    """A rank's part in a call it walks step by step, round by round."""
    comm = fd.comm
    # ---- step 1: offset exchange -------------------------------------------------
    t0 = prof.mark()
    if fd.exchange_mode == "flow":
        yield from comm.allgather(rank, (access.start_offset, access.end_offset), nbytes=16)
    else:
        yield comm.timed(rank, call.offset_cost, "offset_exch")
    prof.lap("offset_exch", t0)
    profiler = comm.sim.profiler
    if profiler is not None:
        profiler.count("ext2ph.park_live", 1 + len(comm.members[rank]))
    # Every rank computes identical values from identical inputs (as in
    # ROMIO); in simulation every rank has registered its access by the
    # time the exchange releases, so the first one through gathers them
    # into the call's table and reads the offsets off its vectors.
    if call.table is None:
        _gather_offsets(fd, call)

    use_collective = fd.hints.romio_cb_write == "enable" or (
        fd.hints.romio_cb_write == "automatic" and call.interleaved
    )
    if not use_collective:
        from repro.romio import datasieve  # local import to avoid a cycle

        comm.alone(rank, f"data sieving (romio_cb_write={fd.hints.romio_cb_write})")
        nbytes = yield from datasieve.write_strided(fd, rank, access, prof)
        return nbytes

    if call.max_end < call.min_st:
        return 0

    # ---- step 2: file domains ----------------------------------------------------
    if call.domains is None:
        _partition(fd, call)

    # Aggregators pin their collective buffer for the whole operation
    # (the memory-pressure effect of big cb_buffer_size, paper point (d)).
    node = None
    if fd.is_aggregator(rank):
        node = fd.machine.nodes[comm.node_of(rank)]
        node.pin_memory(fd.hints.cb_buffer_size)

    try:
        if fd.exchange_mode == "flow":
            yield from _rounds_flow(fd, rank, access, call, prof)
        else:
            yield from _rounds_model(fd, rank, call, prof)
    finally:
        if node is not None:
            node.unpin_memory(fd.hints.cb_buffer_size)

    # ---- step 5: post-write error exchange ----------------------------------------
    t0 = prof.mark()
    yield from comm.allreduce(rank, 0, op_max, nbytes=4)
    prof.lap("post_write", t0)
    _check_conservation(fd, call)
    # MPI semantics: the call reports this rank's own contribution; what it
    # wrote as an aggregator only feeds internal accounting.
    return access.total_bytes


def fast_paths(machine, comm, exchange_mode: str, hints) -> tuple[bool, bool]:
    """``(bulk, clock)``: the fast paths a file's collective writes may
    take.  Known before any call is made, so a program can ask up front
    (``workloads.phases`` runs the ranks that never write in a call on its
    clock as one process)."""
    if exchange_mode != "model":
        return False, False
    bulk = not machine.reference
    # A clock needs the shared release events of the production stack's
    # model collectives and no fault injector, which may interrupt a rank
    # in the middle of the call.
    shared = (
        bulk
        and comm.collective_mode == "model"
        and getattr(machine, "faults", None) is None
    )
    # ... and certainty, before any offset is known, that the call takes
    # the collective path: the hint must not wait for the interleaving test.
    return bulk, shared and hints.romio_cb_write == "enable"


def _open_call(fd: ADIOFile, call: CollectiveCallState) -> None:
    """Fill in the call's constants — the first rank to arrive does it for
    all: the costs and labels each rank would otherwise recompute, and
    which of the fast paths the call may take."""
    call.opened = True
    comm = fd.comm
    call.bulk, call.park = fast_paths(fd.machine, comm, fd.exchange_mode, fd.hints)
    if fd.exchange_mode != "model":
        return
    costs = comm.costs
    call.offset_cost = costs.small_collective(comm.size, 16)
    call.alltoall_cost = costs.alltoall(comm.size, 16)
    call.a2a_label = f"a2a.c{call.index}"
    call.x_label = f"x.c{call.index}"
    if call.park:
        call.clock = CallClock(fd, call)


class _Waiter:
    """One process of a call on its clock: the event it waits on, its phase
    seconds, the rounds lapped into them and the instant it last arrived."""

    __slots__ = ("rank", "wake", "seconds", "lapped", "since")

    def __init__(self, rank: int, wake: Event, seconds: dict[str, float], since: float):
        self.rank = rank
        self.wake = wake
        self.seconds = seconds
        self.lapped = 0
        self.since = since


class CallClock:
    """One collective write call, run in closed form.

    Every process arrives at the offset exchange once and waits
    (:meth:`arrive`).  The exchange's release (:meth:`_start`) laps everyone,
    derives the plan and starts the rounds.  A round that starts at ``T`` —
    the exchange's release, later the instant its predecessor's last writer
    came back, or that round's ``t_x`` if nobody wrote in it — has
    ``t_a2a = T + alltoall_cost`` and ``t_x = t_a2a + durations[r]``: the
    two chained additions its two timed slots make on the live path.  Each
    aggregator that receives bytes in it is woken at ``(t_x + pieces ·
    piece_overhead) + bytes / memcpy_bw``, writes, and reports back
    (:meth:`report`); wake events enter their bucket in the order the live
    ranks would have created their deadlines — arrival order at the round's
    first slot: those who did not write in the round before, as they were,
    then its writers as they came back.  After the last round the
    post-write release fires ``small_collective(size, 4)`` after the last
    arrival and resumes everyone else, in the live order: first in arrival
    order those who never wrote, woken by :meth:`_finish`, then the writers,
    which have been waiting on the release itself since their last report.
    Profiler laps are added from the clock's instants in the order each
    rank's own ``lap`` calls would have added them (:meth:`_lap`).
    """

    def __init__(self, fd: ADIOFile, call: CollectiveCallState):
        self.fd = fd
        self.call = call
        self.sim = fd.comm.sim
        self.waiters: list[_Waiter] = []  # every process, in arrival order
        self.round = -1  # the round being written; -1 before the exchange releases
        self.t_a2a: list[float] = []  # by round, as far as the clock has come
        self.t_x: list[float] = []
        fd.comm.hold_classes(self)

    def __str__(self) -> str:
        return f"collective call {self.call.index} of {self.fd.path}"

    def arrive(self, rank: int, prof: Profiler) -> Event:
        """``rank`` (and its class) reaches the offset exchange.  Returns
        the event it waits on, fired with the round it is to write, or with
        ``None`` when the call is over."""
        release = self.fd.comm.timed(rank, self.call.offset_cost, "offset_exch")
        if not self.waiters:
            release.callbacks.append(self._start)
        wake = self.sim.event("write_all:wake")
        self.waiters.append(_Waiter(rank, wake, prof.profile.seconds, prof.mark()))
        return wake

    def _start(self, _event: Event) -> None:
        """The offset exchange released: do once what every rank would do
        on its own resume, then run the rounds."""
        fd, call, sim = self.fd, self.call, self.sim
        comm = fd.comm
        now = sim.now
        for w in self.waiters:
            w.seconds["offset_exch"] = w.seconds.get("offset_exch", 0.0) + (now - w.since)
            w.since = now
        _gather_offsets(fd, call)
        profiler = sim.profiler
        if call.max_end < call.min_st:
            # Nothing to write: over at the exchange, without a post-write
            # allreduce — where the live path returns.
            if profiler is not None:
                profiler.count("ext2ph.park_single", comm.size)
            self._close()
            for w in self.waiters:
                w.wake._fire_inline(None)
            return
        _partition(fd, call)
        _prepare_model(fd, call)
        # Aggregators pin their collective buffer for the whole operation
        # (the memory-pressure effect of big cb_buffer_size, paper point (d)).
        for a in fd.aggregators:
            fd.machine.nodes[comm.node_of(a)].pin_memory(fd.hints.cb_buffer_size)
        # per round: aggregator index -> (pieces, bytes) it receives
        self.writers: list[dict[int, tuple[int, int]]] = [{} for _ in range(call.ntimes)]
        self.left: dict[int, int] = {}  # aggregator index -> rounds it has yet to write
        rounds, aggs = np.nonzero(call.recv_bytes.T)
        for r, i, pieces, nbytes in zip(
            rounds.tolist(),
            aggs.tolist(),
            call.recv_pieces[aggs, rounds].tolist(),
            call.recv_bytes[aggs, rounds].tolist(),
        ):
            self.writers[r][i] = (pieces, nbytes)
            self.left[i] = self.left.get(i, 0) + 1
        if profiler is not None:  # counts ranks, not the processes standing for them
            if self.left:
                profiler.count("ext2ph.park_live", len(self.left))
            profiler.count("ext2ph.park_single", comm.size - len(self.left))
        # Writers by aggregator index, and in arrival order at the round's
        # first slot; everyone else wakes once, when the call is over.
        self.writing: dict[int, _Waiter] = {}
        self.order: list[int] = []
        self.idle: list[_Waiter] = []
        agg_index = fd.agg_index
        for w in self.waiters:
            i = agg_index.get(w.rank)
            if i in self.left:
                self.writing[i] = w
                self.order.append(i)
            else:
                self.idle.append(w)
        self.release = sim.event("write_all:post_write")
        self.release.callbacks.append(self._finish)
        self.round = 0
        self._advance(now)

    def _advance(self, start: float) -> None:
        """Run the rounds from ``self.round`` on, the first starting at
        ``start``, up to one somebody writes in — whose writers' wake
        events it schedules — or through the last, to the post-write
        release."""
        call, sim = self.call, self.sim
        alltoall_cost = call.alltoall_cost
        durations = call.round_durations
        network, ram = self.fd.machine.config.network, self.fd.machine.config.ram
        r = self.round
        while r < call.ntimes:
            t_a2a = start + alltoall_cost
            t_x = t_a2a + durations[r]
            self.t_a2a.append(t_a2a)
            self.t_x.append(t_x)
            writers = self.writers[r]
            if writers:
                self.round = r
                self.pending = set(writers)
                stay = []
                for i in self.order:
                    if i not in writers:
                        stay.append(i)
                        continue
                    # Assembly: the per-piece scatter cost, then the
                    # streaming copy — two hops, added separately (floats
                    # are not associative), charged as one event.
                    pieces, nbytes = writers[i]
                    wake = self.writing[i].wake
                    wake.adopt(True, r)
                    sim._schedule_at(
                        wake, (t_x + pieces * network.piece_overhead) + nbytes / ram.memcpy_bw
                    )
                self.order = stay
                return
            start = t_x
            r += 1
        self.round = r
        # Step 5, the error allreduce: released this long after the last arrival.
        self.release.adopt(True, None)
        sim._schedule_at(
            self.release, start + self.fd.comm.costs.small_collective(self.fd.comm.size, 4)
        )

    def report(self, rank: int, r: int) -> Event:
        """``rank`` has written round ``r``'s buffer.  Returns the event it
        waits on next: its next writing round's, or the post-write release."""
        i = self.fd.agg_index.get(rank)
        if r != self.round or i not in self.pending:
            raise SimError(
                f"{self}: rank {rank} reports back from round {r}, which it does "
                f"not write (the clock is at round {self.round})"
            )
        self.pending.remove(i)
        w = self.writing[i]
        self._lap(w, r + 1)
        w.since = now = self.sim.now
        self.order.append(i)
        self.left[i] -= 1
        if self.left[i]:
            wait = w.wake = self.sim.event("write_all:wake")
        else:
            wait = self.release
        if not self.pending:
            self.round = r + 1
            self._advance(now)
        return wait

    def _lap(self, w: _Waiter, upto: int) -> None:
        """Add the exchange laps of the rounds below ``upto`` not yet in
        ``w``'s phase seconds — each round's alltoall since the process
        arrived at it, then its data exchange — as its own ``lap`` calls
        would have, one after another."""
        r = w.lapped
        if r >= upto:
            return
        seconds, since = w.seconds, w.since
        shuffle = seconds.get("shuffle_all2all", 0.0)
        comm = seconds.get("comm", 0.0)
        t_a2a, t_x = self.t_a2a, self.t_x
        while r < upto:
            shuffle += t_a2a[r] - since
            since = t_x[r]
            comm += since - t_a2a[r]
            r += 1
        seconds["shuffle_all2all"] = shuffle
        seconds["comm"] = comm
        w.lapped, w.since = r, since

    def _finish(self, _event: Event) -> None:
        """The post-write release: everybody's remaining laps, then resume
        those who never wrote; the writers' resumes follow on the release."""
        fd, call = self.fd, self.call
        if self.round != call.ntimes:  # not by this clock, then: writers are still out
            back = len(self.idle) + sum([not rounds for rounds in self.left.values()])
            raise SimError(
                f"{self}: the post-write release is reached with {back} of "
                f"{len(self.waiters)} processes arrived (the clock is at round "
                f"{self.round} of {call.ntimes})"
            )
        now = self.sim.now
        for w in self.waiters:
            self._lap(w, call.ntimes)
            w.seconds["post_write"] = w.seconds.get("post_write", 0.0) + (now - w.since)
        for a in fd.aggregators:
            fd.machine.nodes[fd.comm.node_of(a)].unpin_memory(fd.hints.cb_buffer_size)
        self._close()
        _check_conservation(fd, call)
        for w in self.idle:
            w.wake._fire_inline(None)

    def _close(self) -> None:
        self.fd.comm.hold_classes(None)
        self.call.clock = None


def _gather_offsets(fd: ADIOFile, call: CollectiveCallState) -> None:
    """Step 1's result: the call's table and the offsets read off it."""
    table = call.table = AccessTable.gather(call.accesses, fd.comm.size, fd.comm.members)
    profiler = fd.machine.sim.profiler
    if profiler is not None:
        first = next(iter(call.accesses.values()))
        profiler.count(
            "access.table_reuse"
            if table is first.table
            else "access.table_gather_adhoc"
        )
    call.interleaved = table.interleaved
    call.min_st = table.min_st
    call.max_end = table.max_end


def _check_conservation(fd: ADIOFile, call: CollectiveCallState) -> None:
    """A call that completed has handed its aggregators' writes every byte
    its ranks cover, each once — to the PFS or into the cache, nowhere
    else.  The expectation is the table's own coverage, not the plan the
    writes were cut from, so a plan that drops or repeats bytes (a memo
    restoring coverage wrongly) fails here on any run."""
    expected = call.table.coverage_bytes
    if call.written != expected:
        raise SimError(
            f"{fd.path}: collective call {call.index} handed {call.written} bytes "
            f"to write_contig, but its ranks cover {expected}"
        )


def _partition(fd: ADIOFile, call: CollectiveCallState) -> None:
    """Step 2: file domains over the aggregators and the round count."""
    cb = fd.hints.cb_buffer_size
    call.domains = fd.driver.partition_domains(fd, call.min_st, call.max_end)
    call.ntimes = max((-(-d.size // cb) for d in call.domains if d.size > 0), default=0)


# ---------------------------------------------------------------------------------
# flow fidelity: every message simulated, payload bytes really shuffled
# ---------------------------------------------------------------------------------


def _rounds_flow(fd: ADIOFile, rank: int, access: RankAccess, call, prof: Profiler):
    comm = fd.comm
    cb = fd.hints.cb_buffer_size
    key = fd.payload_key
    written = 0
    for r in range(call.ntimes):
        # -- dissemination alltoall ------------------------------------------------
        send_sizes = [0] * comm.size
        slices = {}
        for d in call.domains:
            if d.size <= 0:
                continue
            lo = d.start + r * cb
            hi = min(d.end, lo + cb)
            if lo >= hi:
                continue
            ws = access.slice_window(lo, hi)
            if ws.nbytes > 0:
                slices[d.aggregator_rank] = ws
                send_sizes[d.aggregator_rank] = ws.nbytes
        t0 = prof.mark()
        counts = yield from comm.alltoall(rank, send_sizes, per_pair_bytes=16)
        prof.lap("shuffle_all2all", t0)

        # -- data exchange ------------------------------------------------------------
        send_reqs = []
        for dst, ws in slices.items():
            payload = (ws.offsets, ws.lengths, gather_payload(key, ws.offsets, ws.lengths))
            send_reqs.append(comm.isend(rank, dst, _TAG_DATA + r, payload, ws.nbytes))
        recv_reqs = []
        if fd.is_aggregator(rank):
            recv_reqs = [
                comm.irecv(rank, source=src, tag=_TAG_DATA + r)
                for src, c in enumerate(counts)
                if c > 0
            ]
        t0 = prof.mark()
        yield from comm.waitall(recv_reqs + send_reqs)
        prof.lap("comm", t0)

        # -- assembly + write ------------------------------------------------------------
        if fd.is_aggregator(rank) and recv_reqs:
            pieces = [req.result().payload for req in recv_reqs]
            total = sum(int(ls.sum()) for _, ls, _ in pieces)
            if total > 0:
                t0 = prof.mark()
                yield from fd.machine.nodes[comm.node_of(rank)].memcpy(total)
                prof.lap("memcpy", t0)
            segments, seg_data = _assemble(pieces)
            t0 = prof.mark()
            for (s, e), data in zip(segments, seg_data):
                yield from fd.driver.write_contig(fd, rank, s, e - s, data)
                written += e - s
            prof.lap("write", t0)
    call.written += written
    return written


def _assemble(
    pieces: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
) -> tuple[list[tuple[int, int]], list[np.ndarray]]:
    """Merge received (offsets, lengths, payload) pieces into contiguous
    segments with assembled data."""
    cover = IntervalSet()
    for offs, lens, _ in pieces:
        for o, l in zip(offs, lens):
            cover.add(int(o), int(o) + int(l))
    segments = list(cover)
    buffers = [np.zeros(e - s, dtype=np.uint8) for s, e in segments]
    for offs, lens, payload in pieces:
        pos = 0
        for o, l in zip(offs, lens):
            o, l = int(o), int(l)
            for (s, e), buf in zip(segments, buffers):
                if s <= o and o + l <= e:
                    buf[o - s : o - s + l] = payload[pos : pos + l]
                    break
            else:  # pragma: no cover - assembly invariant
                raise SimError("received extent not inside any merged segment")
            pos += l
    return segments, buffers


# ---------------------------------------------------------------------------------
# model fidelity: vectorised per-round costs, arrival-synchronised charging
# ---------------------------------------------------------------------------------


_MODEL_MEMO_EXTENT_CAP = 64  # per-rank extents; larger patterns skip the memo


class _ModelMemo:
    """The process-wide memo of per-round model arrays.

    One plan per *shape* of collective call (see :func:`_model_memo_key`):
    the files of a run, the machines of a sweep and the jobs of a fleet
    that repeat a shape all read the same arrays, which are therefore
    read-only.  Bounded by the bytes it holds; the oldest plans go first.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self.held = 0
        self._plans: dict[tuple, tuple[np.ndarray, ...]] = {}

    def __len__(self) -> int:
        return len(self._plans)

    def get(self, key: tuple) -> Optional[tuple[np.ndarray, ...]]:
        return self._plans.get(key)

    def put(self, key: tuple, plan: tuple[np.ndarray, ...]) -> None:
        size = sum(a.nbytes for a in plan)
        if size > self.budget:
            return
        for a in plan:
            a.flags.writeable = False
        plans = self._plans
        while self.held + size > self.budget:
            self.held -= sum(a.nbytes for a in plans.pop(next(iter(plans))))
        plans[key] = plan
        self.held += size

    def clear(self) -> None:
        self._plans.clear()
        self.held = 0


model_memo = _ModelMemo(budget=8 << 20)


def _model_memo_key(fd: ADIOFile, call: CollectiveCallState, cb: int):
    """Content key for the per-round model arrays, or ``None`` when the
    pattern is a CSR table too large to fingerprint cheaply.

    Every input the arrays depend on is in the key, in a form that forgets
    what they do not depend on:

    * the table's translation-normalised digest (every rank's shifted
      extents) and the shifted domains — all the quantities are functions
      of byte counts inside shifted windows, so patterns that differ only
      by a constant file offset (IOR segments, the per-file phases of a
      run) share one plan, bit for bit;
    * the rank->node map with nodes renumbered by first appearance
      (``comm.placement``) — the map enters only through per-node sums
      that are then maxed over nodes, and each node's sum adds the same
      ranks in the same (rank) order whatever the node is called, so jobs
      of one shape placed on different physical nodes share one plan;
    * the aggregator list and the cost parameters of the shuffle.
    """
    table = call.table
    if table.levels is None and table.max_rank_extents > _MODEL_MEMO_EXTENT_CAP:
        return None  # a descriptor fingerprints in O(ranks) whatever it describes
    base = call.min_st
    costs = fd.comm.costs
    return (
        call.ntimes,
        cb,
        costs.alpha,
        costs.beta_inv,
        costs.per_message,
        costs.shm_beta_inv,
        fd.machine.config.network.piece_overhead,
        tuple(fd.aggregators),
        fd.comm.placement,
        tuple((d.start - base, d.end - base, d.aggregator_rank) for d in call.domains),
        call.table.digest,
    )


def _prepare_model(fd: ADIOFile, call: CollectiveCallState) -> None:
    """Derive the call's per-round costs (from the memo when the shape has
    been planned before)."""
    cb = fd.hints.cb_buffer_size
    key = _model_memo_key(fd, call, cb)
    plan = None
    if key is not None:
        profiler = fd.comm.sim.profiler
        plan = model_memo.get(key)
        if profiler is not None:
            profiler.count(
                "ext2ph.model_cache_miss" if plan is None else "ext2ph.model_cache_hit"
            )
    base = call.min_st
    if plan is None:
        plan = _solve_model(fd, call, cb)
        if key is not None:
            model_memo.put(key, plan)
    recv_bytes, recv_pieces, durations, cov_starts, cov_ends = plan
    call.recv_bytes = recv_bytes
    call.recv_pieces = recv_pieces
    call.shuffle_durations = durations
    call.round_durations = durations.tolist()
    call.merged_cov = (cov_starts + base, cov_ends + base)
    call.prepared = True


def _solve_model(
    fd: ADIOFile, call: CollectiveCallState, cb: int
) -> tuple[np.ndarray, ...]:
    """One vectorised pass over all rounds: what each aggregator receives
    (bytes, pieces), how long each round's exchange lasts, and the merged
    coverage the aggregators write — offsets relative to ``call.min_st``."""
    comm = fd.comm
    P = comm.size
    ntimes = call.ntimes
    # Row i: aggregator i's domain in rounds of cb bytes, cut at its end.
    lo = np.array([d.start for d in call.domains], dtype=np.int64)[:, None]
    hi = np.array([max(d.start, d.end) for d in call.domains], dtype=np.int64)[:, None]
    bounds = np.minimum(lo + cb * np.arange(ntimes + 1, dtype=np.int64), hi)
    sends, pieces = call.table.window_sums(bounds)  # [rank, agg, round]
    recv_bytes = sends.sum(axis=0)  # (naggs, ntimes)
    recv_pieces = pieces.sum(axis=0)  # (naggs, ntimes)

    # Nodes by first appearance among the ranks: the sums below are taken
    # per node and maxed over nodes, which no renumbering changes.
    node_of = np.asarray(comm.placement, dtype=np.int64)
    agg_node = node_of[fd.aggregators]
    cross = (node_of[:, None] != agg_node[None, :]).astype(np.int64)
    crossed = sends * cross[:, :, None]  # bytes that traverse NICs
    local = sends - crossed  # intra-node bytes (shared-memory transport)
    num_nodes = int(node_of.max()) + 1 if P else 0
    out_node = np.zeros((num_nodes, ntimes))
    np.add.at(out_node, node_of, crossed.sum(axis=1))
    in_node = np.zeros((num_nodes, ntimes))
    np.add.at(in_node, agg_node, crossed.sum(axis=0))
    loop_node = np.zeros((num_nodes, ntimes))
    np.add.at(loop_node, agg_node, local.sum(axis=0))
    hot = np.maximum(out_node.max(axis=0), in_node.max(axis=0)) if ntimes else np.zeros(0)
    loop_hot = loop_node.max(axis=0) if ntimes else np.zeros(0)
    msgs = (sends > 0).sum(axis=1).max(axis=0) if P else np.zeros(ntimes)
    costs = comm.costs
    piece_cost = fd.machine.config.network.piece_overhead
    # Sender-side pack cost: the busiest rank's offset/length pairs this round.
    pack = pieces.sum(axis=1).max(axis=0) * piece_cost if P else np.zeros(ntimes)
    # NIC traffic and shared-memory traffic overlap; the round's exchange
    # lasts as long as the slower of the two at the hottest node.
    durations = (
        costs.alpha
        + np.maximum(hot * costs.beta_inv, loop_hot * costs.shm_beta_inv)
        + msgs * costs.per_message
        + pack
    )
    cov_starts, cov_ends = call.table.coverage  # merged extents for aggregator writes
    base = call.min_st
    return recv_bytes, recv_pieces, durations, cov_starts - base, cov_ends - base


def _rounds_model(fd: ADIOFile, rank: int, call: CollectiveCallState, prof: Profiler):
    comm = fd.comm
    if not call.prepared:
        _prepare_model(fd, call)
    agg_idx = fd.agg_index.get(rank)

    written = 0
    cb = fd.hints.cb_buffer_size
    domain = call.domains[agg_idx] if agg_idx is not None else None
    merged = call.merged_cov
    sim = comm.sim
    bulk = call.bulk
    piece_overhead = fd.machine.config.network.piece_overhead
    memcpy_bw = fd.machine.config.ram.memcpy_bw
    a2a_label = call.a2a_label
    x_label = call.x_label
    alltoall_cost = call.alltoall_cost
    durations = call.round_durations
    for r in range(call.ntimes):
        t0 = prof.mark()
        yield comm.timed(rank, alltoall_cost, a2a_label)
        prof.lap("shuffle_all2all", t0)
        t0 = prof.mark()
        yield comm.timed(rank, durations[r], x_label)
        prof.lap("comm", t0)
        if agg_idx is None or domain.size <= 0:
            continue
        recv = int(call.recv_bytes[agg_idx, r])
        if recv <= 0:
            continue
        t0 = prof.mark()
        # Assembly: streaming copy plus the per-piece scatter cost (heap
        # merge + small-extent memcpy inefficiency).
        npieces = int(call.recv_pieces[agg_idx, r])
        if bulk:
            # Both delays are fixed at issue time; charge them as one event
            # landing at the exact chained-addition timestamp (floats are
            # not associative, so the two hops are added separately).
            t_mid = sim.now + npieces * piece_overhead
            yield sim.at(t_mid + recv / memcpy_bw)
        else:
            yield sim.timeout(npieces * piece_overhead)
            yield from fd.machine.nodes[comm.node_of(rank)].memcpy(recv)
        prof.lap("memcpy", t0)
        lo = domain.start + r * cb
        hi = min(domain.end, lo + cb)
        t0 = prof.mark()
        for s, e in coverage_in_window(merged[0], merged[1], lo, hi):
            yield from fd.driver.write_contig(fd, rank, s, e - s, None)
            written += e - s
        prof.lap("write", t0)
    call.written += written
    return written
