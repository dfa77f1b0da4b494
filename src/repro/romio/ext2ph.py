"""The extended two-phase collective write (``ADIOI_Exch_and_write``).

Port of the algorithm the paper describes in Section II-A, step for step:

1. all ranks exchange access-pattern offsets (start/end),
2. the global region is split into file domains over the aggregators,
3. every rank derives which aggregators its data maps to,
4. per round (``collective buffer size`` worth of each domain):
   a dissemination ``MPI_Alltoall`` (who sends how much this round),
   the data exchange (ROMIO's ``MPI_Isend``/``Irecv``/``Waitall``),
   aggregator assembly into the collective buffer (memcpy),
   and ``ADIO_WriteContig`` of the covered segments,
5. a final ``MPI_Allreduce`` of error codes (``post_write``).

The exchange is a model: per-round costs are precomputed vectorised over
all rounds (per-NIC hot-spot bytes, message counts) and charged through
arrival-synchronised ``timed`` collectives, so no message is simulated
and no rank holds a buffer — an aggregator hands ``write_contig`` its
round's segments with ``data=None`` (a driver that moves payload bytes
fills them in: :mod:`repro.payload`).  The global synchronisation
structure is kept: every round begins with an all-ranks collective, so a
slow aggregator (device jitter, cache flush backlog) stalls everyone — the
effect the paper measures as ``shuffle_all2all``/``post_write`` cost.  The
call counts the bytes its aggregators hand to ``write_contig``: a call that
completes must have handed over its table's coverage, each byte once, or it
raises (:func:`_check_conservation`).

**Only writers wake** (docs/PERFORMANCE.md has the argument and the
numbers).  ROMIO derives a call's plan once and every process reads
it; so here: the first rank to arrive fills in the call's constants
(:func:`_open_call`), the offset exchange's release the table, domains and
per-round costs — the latter from a process-wide memo keyed by the call's
*shape* (:class:`_ModelMemo`), so the files of a run, the points of a sweep
and the jobs of a fleet share one plan.  Only an aggregator that receives
bytes in a round decides anything in it.  Where the path is certain before
any offset is known (:func:`call_paths`) — an engine that releases a slot
through one event (``Simulator.shared_releases``: the slotted engine),
``romio_cb_write=enable`` — every rank arrives at the
offset exchange once and waits, and the call runs on one clock
(:class:`CallClock`) that advances round by round in closed form and, at the
instant a writer's buffer is assembled, writes its round itself through
``write_contig``'s callback chains; every process is resumed once, by the
post-write release.  "Process" is a *class* of ranks: a phased workload
runs its non-aggregators as one (``workloads.phases``), which arrives once
with the weight of them all.  Faults change none of this: stalls, degraded
links and device errors act below ``write_contig``, which the clock calls
live, and a crash tears the whole job down: the clock lets go of what the
call holds (:meth:`CallClock.abort`), and a writer's own interrupt abandons
the write its round is in.  Everything else — the reference stack's heapq
engine (``Machine(reference=True)``), ``romio_cb_write=automatic`` — walks
round by round, one process per rank (:func:`_rounds_model`), and is the
oracle the clock is tested against (tests/romio/test_call_clock.py,
tests/mpi/test_rank_classes.py).  The walk is one implementation on either
stack: an aggregator assembles its buffer in two hops, the per-piece
scatter cost and then the memcpy.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import partial
from typing import Optional

import numpy as np

from repro.access import AccessTable, RankAccess, ranks_interleaved
from repro.mpi.collectives import op_max
from repro.romio.fd import ADIOFile, CollectiveCallState
from repro.romio.profiling import Profiler
from repro.sim.core import Event, SimError, abandon


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
    offset exchange and wait, once, until the call is over.  The clock
    writes the rounds an aggregator receives without it
    (:meth:`CallClock._write`)."""
    yield call.clock.arrive(rank, prof)  # interrupted, its abandon hook aborts the call
    return access.total_bytes


def _write_live(fd: ADIOFile, rank: int, access: RankAccess, call, prof: Profiler):
    """A rank's part in a call it walks step by step, round by round."""
    comm = fd.comm
    # ---- step 1: offset exchange -------------------------------------------------
    t0 = prof.mark()
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


def call_paths(comm, hints) -> bool:
    """Whether a file's collective writes run on their clock.  Known before
    any call is made, so a program can ask up front (``workloads.phases``
    runs the ranks that never write in a call on its clock as one process).
    A clock needs the one release event per slot of an engine with
    ``shared_releases``, and certainty, before any offset is known, that
    the call takes the collective path (no waiting for the interleaving
    test)."""
    return comm.sim.shared_releases and hints.romio_cb_write == "enable"


def _open_call(fd: ADIOFile, call: CollectiveCallState) -> None:
    """Fill in the call's constants — the first rank to arrive does it for
    all: the costs and labels each rank would otherwise recompute, and
    whether the call runs on its clock."""
    call.opened = True
    comm = fd.comm
    call.park = call_paths(comm, fd.hints)
    costs = comm.costs
    call.offset_cost = costs.small_collective(comm.size, 16)
    call.alltoall_cost = costs.alltoall(comm.size, 16)
    call.a2a_label = f"a2a.c{call.index}"
    call.x_label = f"x.c{call.index}"
    if call.park:
        call.clock = CallClock(fd, call)


class _Waiter:
    """One process of a call on its clock: the event it waits on, its phase
    seconds, the rounds lapped into them and the instant it last arrived;
    for a writer, its round's writes: those left, the one in flight and the
    instant the first began."""

    __slots__ = ("rank", "wake", "seconds", "lapped", "since", "todo", "stage", "t0")

    def __init__(self, rank: int, wake: Event, seconds: dict[str, float], since: float):
        self.rank = rank
        self.wake = wake
        self.seconds = seconds
        self.lapped = 0
        self.since = since
        self.stage: Optional[Event] = None


class CallClock:
    """One collective write call, run in closed form.

    Every process arrives at the offset exchange once and waits, once, on
    an event of its own (:meth:`arrive`).  The exchange's release
    (:meth:`_start`) laps everyone, derives the plan and starts the rounds.
    A round that starts at ``T`` — the exchange's release, later the instant
    its predecessor's last writer came back, or that round's ``t_x`` if
    nobody wrote in it — has ``t_a2a = T + alltoall_cost`` and ``t_x = t_a2a
    + durations[r]``: the two chained additions its two timed slots make on
    the live path.  For each aggregator that receives bytes in it the clock
    schedules a call at ``(t_x + pieces · piece_overhead) + bytes /
    memcpy_bw`` (:meth:`_write`), in the slot the live rank's deadline would
    take — arrival order at the round's first slot: those who did not write
    in the round before, as they were, then its writers as they came back.
    The call writes the round's segments one after another through
    ``write_contig``'s chains, with no process resumed, and reports back
    (:meth:`_report`).  After the last round the post-write release fires
    ``small_collective(size, 4)`` after the last arrival and resumes
    everyone, in the live order: first in arrival order those who never
    wrote (:meth:`_finish`), then the writers in the order of their last
    reports, each of which put the firing of its process's event on the
    release.  Profiler laps are added from the clock's instants in the order
    each rank's own ``lap`` calls would have added them (:meth:`_lap`).  A
    crash that interrupts the job mid-call aborts the clock (:meth:`abort`),
    and each writer's interrupt abandons the write its round waits on.
    """

    def __init__(self, fd: ADIOFile, call: CollectiveCallState):
        self.fd = fd
        self.call = call
        self.sim = fd.comm.sim
        self.waiters: list[_Waiter] = []  # every process, in arrival order
        self.round = -1  # the round being written; -1 before the exchange releases
        self.t_a2a: list[float] = []  # by round, as far as the clock has come
        self.t_x: list[float] = []
        self.pinned = False  # the aggregators' buffers, from the rounds' start to the end
        self.release: Optional[Event] = None  # the post-write release, once the rounds start
        self.aborted = False
        self._arrive = fd.comm.arrive  # the offset exchange's slot, one hop away
        fd.comm.hold_classes(self)

    def __str__(self) -> str:
        return f"collective call {self.call.index} of {self.fd.path}"

    def arrive(self, rank: int, prof: Profiler) -> Event:
        """``rank`` (and its class) reaches the offset exchange.  Returns
        the event it waits on, fired when the call is over (failed, if a
        write of its rounds failed)."""
        release = self._arrive(rank, "timed:offset_exch", self.call.offset_cost)
        if not self.waiters:
            release.callbacks.append(self._start)
        wake = self.sim.event("write_all:done")
        w = _Waiter(rank, wake, prof.profile.seconds, self.sim.now)
        wake.abandon = partial(self._abandon, w)
        self.waiters.append(w)
        return wake

    def _start(self, _event: Event) -> None:
        """The offset exchange released: do once what every rank would do
        on its own resume, then run the rounds."""
        if self.aborted:
            return
        fd, call, sim = self.fd, self.call, self.sim
        comm = fd.comm
        now = sim.now
        waiters = self.waiters
        for w in waiters:  # a phase appears with its first lap (profiles compare ==)
            seconds, dt = w.seconds, now - w.since
            seconds["offset_exch"] = (
                seconds["offset_exch"] + dt if "offset_exch" in seconds else dt
            )
            w.since = now
        _gather_offsets(fd, call)
        profiler = sim.profiler
        if call.max_end < call.min_st:
            # Nothing to write: over at the exchange, without a post-write
            # allreduce — where the live path returns.
            if profiler is not None:
                profiler.count("ext2ph.park_single", comm.size)
            self._close()
            for w in waiters:
                w.wake._fire_inline(None)
            return
        _partition(fd, call)
        _prepare_model(fd, call)
        # Aggregators pin their collective buffer for the whole operation
        # (the memory-pressure effect of big cb_buffer_size, paper point (d)).
        for node in fd.agg_nodes:
            node.pin_memory(fd.hints.cb_buffer_size)
        self.pinned = True
        self.writers = call.writers  # per round: aggregator index -> (pieces, bytes)
        left = self.left = dict(call.rounds_left)  # aggregator index -> rounds to write
        if profiler is not None:  # counts ranks, not the processes standing for them
            if left:
                profiler.count("ext2ph.park_live", len(left))
            profiler.count("ext2ph.park_single", comm.size - len(left))
        # Writers by aggregator index, in arrival order at the round's first
        # slot; everyone else wakes once, when the call is over.
        agg_index = fd.agg_index
        self.writing: dict[int, _Waiter] = {
            agg_index[w.rank]: w
            for w in waiters
            if w.rank in agg_index and agg_index[w.rank] in left
        }
        self.order = list(self.writing)
        writing = set(self.writing.values())
        self.idle = [w for w in waiters if w not in writing]
        self.release = sim.event("write_all:post_write")
        self.release.callbacks.append(self._finish)
        self.round = 0
        self._advance(now)

    def _advance(self, start: float) -> None:
        """Run the rounds from ``self.round`` on, the first starting at
        ``start``, up to one somebody writes in — whose writers' writes it
        schedules — or through the last, to the post-write release."""
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
                    sim.call_at(
                        (t_x + pieces * network.piece_overhead) + nbytes / ram.memcpy_bw,
                        partial(self._write, self.writing[i]),
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

    def _write(self, w: _Waiter, nbytes: int = 0, written: Optional[Event] = None) -> None:
        """``w``'s buffer of the round is assembled: lap the assembly, then
        hand ``write_contig`` the round's segments one at a time until one is
        to be waited on — this method is its callback, with the bytes it
        wrote — and report back.  A write that raises or fails resumes
        ``w``'s process with the error, raised out of ``write_all`` as the
        walk would raise it."""
        fd, call = self.fd, self.call
        if written is None:
            if self.aborted:
                return
            w.t0 = now = self.sim.now
            seconds, dt = w.seconds, now - self.t_x[self.round]
            seconds["memcpy"] = seconds["memcpy"] + dt if "memcpy" in seconds else dt
            domain = call.domains[fd.agg_index[w.rank]]
            w.todo = iter(_round_writes(call, domain, self.round, fd.hints.cb_buffer_size))
        try:
            if written is not None:
                w.stage = None
                if not written._ok:
                    raise written._value
                call.written += nbytes
            for s, e in w.todo:
                written = fd.driver.write_contig(fd, w.rank, s, e - s, None)
                if written is not None:
                    w.stage = written
                    written.callbacks.append(partial(self._write, w, e - s))
                    return
                call.written += e - s
        except Exception as exc:
            w.wake.abandon = None
            w.wake._fire_inline(exc, ok=False)
            return
        self._report(w)

    def _report(self, w: _Waiter) -> None:
        """``w`` has written its round: lap it, and count it back — after its
        last round, by putting its process's resume on the post-write
        release; the last writer of the round moves the clock on."""
        now = self.sim.now
        seconds, dt = w.seconds, now - w.t0
        seconds["write"] = seconds["write"] + dt if "write" in seconds else dt
        r = self.round
        i = self.fd.agg_index[w.rank]
        self.pending.remove(i)
        self._lap((w,), r + 1)
        w.since = now
        self.order.append(i)
        self.left[i] -= 1
        if not self.left[i]:
            self.release.callbacks.append(w.wake._fire_inline)
        if not self.pending:
            self.round = r + 1
            self._advance(now)

    def _lap(self, waiters, upto: int) -> None:
        """Add the exchange laps of the rounds below ``upto`` not yet in each
        waiter's phase seconds — each round's alltoall since the process
        arrived at it, then its data exchange — as its own ``lap`` calls
        would have, one after another."""
        t_a2a, t_x = self.t_a2a, self.t_x
        for w in waiters:
            r = w.lapped
            if r >= upto:
                continue
            seconds, since = w.seconds, w.since
            shuffle = (
                seconds["shuffle_all2all"] if "shuffle_all2all" in seconds else 0.0
            )
            comm = seconds["comm"] if "comm" in seconds else 0.0
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
        if self.aborted:
            return
        fd, call = self.fd, self.call
        if self.round != call.ntimes:  # not by this clock, then: writers are still out
            back = len(self.idle) + sum([not rounds for rounds in self.left.values()])
            raise SimError(
                f"{self}: the post-write release is reached with {back} of "
                f"{len(self.waiters)} processes arrived (the clock is at round "
                f"{self.round} of {call.ntimes})"
            )
        now = self.sim.now
        waiters = self.waiters
        self._lap(waiters, call.ntimes)  # own dicts: the order across waiters is free
        for w in waiters:
            seconds, dt = w.seconds, now - w.since
            seconds["post_write"] = (
                seconds["post_write"] + dt if "post_write" in seconds else dt
            )
        self._close()
        _check_conservation(fd, call)
        for w in self.idle:
            w.wake._fire_inline(None)

    def _abandon(self, w: _Waiter, _wake: Event) -> None:
        """``w``'s process is interrupted (the job is torn down): abort the
        call, and give up the write ``w``'s round waits on, as the
        interrupted frames of a writer walking the round would have."""
        self.abort()
        stage = w.stage
        if stage is not None:
            w.stage = None
            stage.callbacks.clear()
            abandon(stage)

    def abort(self) -> None:
        """The job is torn down mid-call (a process waiting on the clock is
        interrupted).  Once, for everybody: add the laps each live rank
        would have added by now, unpin every aggregator's buffer and release
        the rank classes, as the live ranks' ``finally`` would; any later
        release or scheduled write finds the clock aborted."""
        if self.aborted:
            return
        self.aborted = True
        for w in self.waiters:
            self._lap_until(w, self.sim.now)
        if self.call.clock is self:
            self._close()

    def _lap_until(self, w: _Waiter, now: float) -> None:
        """Lap ``w`` as its live twin stands at ``now``: every round whose
        data exchange released before, then the next one's alltoall if that
        did (a slot releasing at the crash instant fires after the crash)."""
        t_a2a, t_x = self.t_a2a, self.t_x
        upto = w.lapped
        while upto < len(t_x) and t_x[upto] < now:
            upto += 1
        self._lap((w,), upto)
        if upto < len(t_a2a) and t_a2a[upto] < now:
            shuffle = w.seconds.get("shuffle_all2all", 0.0)
            w.seconds["shuffle_all2all"] = shuffle + (t_a2a[upto] - w.since)

    def _close(self) -> None:
        """Let go of what the call holds: the aggregators' buffers, the rank
        classes, and the abort hooks, which would hold it in cycles — but
        those of writers with a write in flight, which their own interrupts
        take (:meth:`_abandon`)."""
        fd = self.fd
        if self.pinned:
            self.pinned = False
            for node in fd.agg_nodes:
                node.unpin_memory(fd.hints.cb_buffer_size)
        fd.comm.hold_classes(None)
        self.call.clock = None
        for w in self.waiters:
            if w.stage is None:
                w.wake.abandon = None


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
    """Step 2: file domains over the aggregators and the round count (the
    longest domain over ``cb_buffer_size``, rounded up)."""
    call.domains = domains = fd.driver.partition_domains(fd, call.min_st, call.max_end)
    longest = max([d.end - d.start for d in domains])
    call.ntimes = -(-longest // fd.hints.cb_buffer_size) if longest > 0 else 0


# ---------------------------------------------------------------------------------
# the model exchange: vectorised per-round costs, arrival-synchronised charging
# ---------------------------------------------------------------------------------


_MODEL_MEMO_EXTENT_CAP = 64  # per-rank extents; larger patterns skip the memo


class _ModelMemo:
    """The process-wide memo of model plans: per-round arrays and the
    writer schedule read off them.

    One plan per *shape* of collective call (see :func:`_model_memo_key`):
    the files of a run, the machines of a sweep and the jobs of a fleet
    that repeat a shape all read the same plan, which is therefore
    read-only.  Bounded by the bytes its arrays hold; the oldest plans go first.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self.held = 0
        self._plans: dict[tuple, tuple] = {}

    def __len__(self) -> int:
        return len(self._plans)

    def get(self, key: tuple) -> Optional[tuple]:
        return self._plans.get(key)

    def put(self, key: tuple, plan: tuple) -> None:
        size = sum(getattr(a, "nbytes", 0) for a in plan)  # the schedule rides along
        if size > self.budget:
            return
        for a in plan:
            if isinstance(a, np.ndarray):
                a.flags.writeable = False
        plans = self._plans
        while self.held + size > self.budget:
            self.held -= sum(getattr(a, "nbytes", 0) for a in plans.pop(next(iter(plans))))
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
    lo = call.min_st
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
        tuple([(d.start - lo, d.end - lo, d.aggregator_rank) for d in call.domains]),
        table.digest,
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
        plan += _writer_schedule(plan[0], plan[1])
        if key is not None:
            model_memo.put(key, plan)
    recv_bytes, recv_pieces, durations, cov_starts, cov_ends, writers, left = plan
    call.recv_bytes = recv_bytes
    call.recv_pieces = recv_pieces
    call.writers, call.rounds_left = writers, left
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
    ntimes = call.ntimes
    # Row i: aggregator i's domain in rounds of cb bytes, cut at its end.
    lo = np.array([d.start for d in call.domains], dtype=np.int64)[:, None]
    hi = np.array([max(d.start, d.end) for d in call.domains], dtype=np.int64)[:, None]
    bounds = np.minimum(lo + cb * np.arange(ntimes + 1, dtype=np.int64), hi)
    # The (rank, aggregator x round) pairs that carry bytes.  Every sum below
    # is over them, in integers below 2**53: exact as floats in any order.
    rank, cell, sends, pieces = call.table.window_pairs(bounds)
    rnd = cell % ntimes
    recv_bytes, recv_pieces = (_sums(cell, v, len(bounds), ntimes) for v in (sends, pieces))

    # Nodes by first appearance among the ranks: the sums below are taken
    # per node and maxed over nodes, which no renumbering changes.
    node_of = np.asarray(comm.placement, dtype=np.int64)
    num_nodes = int(node_of.max()) + 1
    src = node_of[rank] * ntimes + rnd  # (node, round) keys
    dst = node_of[fd.aggregators][cell // ntimes] * ntimes + rnd
    crossed = np.where(src != dst, sends, 0)  # bytes that traverse NICs
    out_node = _sums(src, crossed, num_nodes, ntimes)
    in_node = _sums(dst, crossed, num_nodes, ntimes)
    # intra-node bytes (shared-memory transport)
    loop_node = _sums(dst, sends - crossed, num_nodes, ntimes)
    hot = np.maximum(out_node.max(axis=0), in_node.max(axis=0)).astype(np.float64)
    loop_hot = loop_node.max(axis=0).astype(np.float64)
    by_rank = rank * ntimes + rnd  # (rank, round) keys; a pair is a message
    msgs = _sums(by_rank, 1, comm.size, ntimes).max(axis=0)
    costs = comm.costs
    piece_cost = fd.machine.config.network.piece_overhead
    # Sender-side pack cost: the busiest rank's offset/length pairs this round.
    pack = _sums(by_rank, pieces, comm.size, ntimes).max(axis=0) * piece_cost
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


def _sums(keys: np.ndarray, values: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """``values`` added up by flat key ``row * cols + col``, as int64."""
    out = np.zeros(rows * cols, dtype=np.int64)
    np.add.at(out, keys, values)
    return out.reshape(rows, cols)


def _writer_schedule(recv_bytes: np.ndarray, recv_pieces: np.ndarray) -> tuple:
    """What a call's clock reads off its plan, memoised with it (read-only): per
    round, ``{aggregator index: (pieces, bytes)}``, and each writer's rounds."""
    writers: tuple[dict[int, tuple[int, int]], ...] = tuple({} for _ in recv_bytes.T)
    rounds, aggs = np.nonzero(recv_bytes.T)
    cells = zip(recv_pieces[aggs, rounds].tolist(), recv_bytes[aggs, rounds].tolist())
    for r, i, cell in zip(rounds.tolist(), aggs.tolist(), cells):
        writers[r][i] = cell
    counts = np.count_nonzero(recv_bytes, axis=1).tolist()
    return writers, {i: n for i, n in enumerate(counts) if n}


def _round_writes(call: CollectiveCallState, domain, r: int, cb: int) -> list[tuple[int, int]]:
    """What an aggregator hands ``write_contig`` in round ``r`` — the call's
    merged coverage clipped to the round's window of ``domain``, bisected
    over list copies of ``call.merged_cov`` made once per call."""
    runs = call.merged_runs
    if runs is None:
        starts, ends = call.merged_cov
        runs = call.merged_runs = (starts.tolist(), ends.tolist())
    starts, ends = runs
    lo = domain.start + r * cb
    hi = min(domain.end, lo + cb)
    out = []
    for k in range(bisect_right(ends, lo), bisect_left(starts, hi)):
        s, e = starts[k], ends[k]
        if s < lo:
            s = lo
        if e > hi:
            e = hi
        if s < e:
            out.append((s, e))
    return out


def _rounds_model(fd: ADIOFile, rank: int, call: CollectiveCallState, prof: Profiler):
    comm = fd.comm
    if not call.prepared:
        _prepare_model(fd, call)
    agg_idx = fd.agg_index.get(rank)

    written = 0
    cb = fd.hints.cb_buffer_size
    domain = call.domains[agg_idx] if agg_idx is not None else None
    piece_overhead = fd.machine.config.network.piece_overhead
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
        yield comm.sim.timeout(npieces * piece_overhead)
        yield from fd.machine.nodes[comm.node_of(rank)].memcpy(recv)
        prof.lap("memcpy", t0)
        t0 = prof.mark()
        for s, e in _round_writes(call, domain, r, cb):
            wrote = fd.driver.write_contig(fd, rank, s, e - s, None)
            if wrote is not None:
                yield wrote
            written += e - s
        prof.lap("write", t0)
    call.written += written
    return written
