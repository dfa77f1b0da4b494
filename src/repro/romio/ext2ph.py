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
  are shuffled and assembled, so the written file is verifiable
  byte-for-byte.  Used at test scale.
* ``model`` — per-round costs are precomputed vectorised over all rounds
  (per-NIC hot-spot bytes, message counts) and charged through
  arrival-synchronised ``timed`` collectives.  Used at the paper's
  512-rank scale where per-message simulation would be prohibitive.

Both preserve the global synchronisation structure: every round begins with
an all-ranks collective, so a slow aggregator (device jitter, cache flush
backlog) stalls everyone — the effect the paper measures as
``shuffle_all2all``/``post_write`` cost.

**Plan once, park once** (model fidelity; docs/PERFORMANCE.md has the
argument and the numbers).  ROMIO derives a call's plan once and every
process reads it; so here.  The first rank to arrive fills in the call's
constants (:func:`_open_call`), the first one through the offset exchange
the table, domains and per-round costs — the latter from a process-wide
memo keyed by the call's *shape* (:class:`_ModelMemo`), so the files of a
run, the points of a sweep and the jobs of a fleet share one plan.  Only
aggregators decide anything per round.  Where the path is certain before
any offset is known (:func:`fast_paths`) — model collectives on the
production stack, no fault injector, ``romio_cb_write=enable`` — a
non-aggregator arrives at the offset exchange, adds itself to the call's
parked ranks and waits on one event for the whole call (:func:`_park`);
the exchange's release laps, plans and pre-registers all of them at once
into the timed ladder of :mod:`repro.mpi.collectives`, whose final release
resumes them where their own resumes would have been.  "Once" is per
*class* of ranks: a phased workload runs its non-aggregators as one
process (``workloads.phases``), which parks one entry that weighs them all.
Ranks that qualify for the ladder only once the plan is known (aggregators
that receive nothing, and non-aggregators of calls that could not park)
join it singly.  Everything else — the reference stack
(``Machine(reference=True)``), fault machines, flow fidelity — walks round
by round, one process per rank, and is the oracle the parked path is tested
against
(tests/romio/test_park_once.py, tests/mpi/test_rank_classes.py).
"""

from __future__ import annotations

from functools import partial
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
from repro.romio.fd import ADIOFile, CollectiveCallState
from repro.romio.profiling import Profiler
from repro.sim.core import Event, SimError

_TAG_DATA = 1 << 20  # below the collective tag range, above user tags

# Sentinel return from _rounds_model: the timed ladder's tail slot already
# carried this rank through the step-5 allreduce, so the caller must not
# arrive at it again.  Real byte counts are never negative.
_LADDER_DONE = -1


def is_interleaved(pairs) -> bool:
    """ROMIO's check over per-rank ``(st_offset, end_offset)`` pairs: any
    rank's start at or before the previous ranks' furthest end."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    return ranks_interleaved(pairs[:, 0], pairs[:, 1])


# The ladder's tail: step 5's error allreduce as the live ranks enter it
# (value, extra) and the phase its release is charged to.
_POST_WRITE_TAIL = ("allreduce", 0, {"reduce_op": op_max, "nbytes": 4}, "post_write")


def write_strided_coll(fd: ADIOFile, rank: int, access: RankAccess, prof: Profiler):
    """Generator: ``ADIOI_GEN_WriteStridedColl`` for one rank.

    Returns the number of bytes this rank contributed.
    """
    comm = fd.comm
    call = fd.call_state()
    call.accesses[rank] = access
    members = comm.members[rank]
    weight = 1
    if members:
        weight += len(members)
        # A class that only follows; each member would bring its own view.
        if fd.is_aggregator(rank):
            comm.alone(rank, "an aggregator's part in write_all")
        if fd.exchange_mode == "flow":
            comm.alone(rank, "the flow-fidelity allgather of offsets")
        if access.table is None or access.data is not None:
            comm.alone(rank, "a write_all access that is not a dataless table view")
        call.accesses.update(access.table.views(members))
    if not call.opened:
        _open_call(fd, call)

    # ---- step 1: offset exchange -------------------------------------------------
    if call.park and rank not in fd.agg_index:
        # Park once: this rank decides nothing in the rest of the call, so
        # the exchange's release carries it through every round and the
        # post-write allreduce together with the call's other such ranks.
        carried = yield _park(fd, call, rank, prof)
        if carried:
            return access.total_bytes
        # Degenerate call (nothing to write, or no ladder to take): the
        # exchange is behind this rank and lapped; the rest is live.
    else:
        t0 = prof.mark()
        if fd.exchange_mode == "flow":
            yield from comm.allgather(
                rank, (access.start_offset, access.end_offset), nbytes=16
            )
        else:
            yield comm.timed(rank, call.offset_cost, "offset_exch")
        prof.lap("offset_exch", t0)
        profiler = comm.sim.profiler
        if profiler is not None:
            profiler.count("ext2ph.park_live", weight)
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

        if members:
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
            nbytes = yield from _rounds_flow(fd, rank, access, call, prof)
        else:
            nbytes = yield from _rounds_model(fd, rank, call, prof)
    finally:
        if node is not None:
            node.unpin_memory(fd.hints.cb_buffer_size)

    if nbytes == _LADDER_DONE:
        # The timed ladder's tail slot already carried this rank through
        # the post-write allreduce (and its release hook wrote the
        # ``post_write`` lap), so step 5 would double-arrive.  Unpinning
        # above moved from the last-round release to the allreduce release
        # — pin accounting is stats-only and no pins occur in between, so
        # ``peak_pinned_bytes`` is unchanged.
        return access.total_bytes

    # ---- step 5: post-write error exchange ----------------------------------------
    t0 = prof.mark()
    yield from comm.allreduce(rank, 0, op_max, nbytes=4)
    prof.lap("post_write", t0)
    # MPI semantics: the call reports this rank's own contribution; ``nbytes``
    # (what this rank wrote as an aggregator) only feeds internal accounting.
    return access.total_bytes


def fast_paths(machine, comm, exchange_mode: str, hints) -> tuple[bool, bool, bool]:
    """``(bulk, ladders, park)``: the fast paths a file's collective writes
    may take.  Known before any call is made, so a program can ask up front
    (``workloads.phases`` runs ranks that park on every call as one process)."""
    if exchange_mode != "model":
        return False, False, False
    bulk = not machine.reference
    # The timed ladder needs the shared release events of the production
    # stack's model collectives and no fault injector, which may interrupt a
    # rank in the middle of the run.
    ladders = (
        bulk
        and comm.collective_mode == "model"
        and getattr(machine, "faults", None) is None
    )
    # A non-aggregator may park when it is certain, before any offset is
    # known, that it will take the collective path and (unless the call
    # turns out degenerate) the ladder: the hint must not wait for the
    # interleaving test.
    return bulk, ladders, ladders and hints.romio_cb_write == "enable"


def _open_call(fd: ADIOFile, call: CollectiveCallState) -> None:
    """Fill in the call's constants — the first rank to arrive does it for
    all: the costs and labels each rank would otherwise recompute, and
    which of the fast paths the call may take."""
    call.opened = True
    comm = fd.comm
    call.bulk, call.ladders, call.park = fast_paths(
        fd.machine, comm, fd.exchange_mode, fd.hints
    )
    if fd.exchange_mode != "model":
        return
    costs = comm.costs
    call.offset_cost = costs.small_collective(comm.size, 16)
    call.alltoall_cost = costs.alltoall(comm.size, 16)
    call.a2a_label = f"a2a.c{call.index}"
    call.x_label = f"x.c{call.index}"


def _park(fd: ADIOFile, call: CollectiveCallState, rank: int, prof: Profiler):
    """Arrive at the offset exchange and join the call's parked ranks;
    returns the event they all wait on (its value: carried through the
    whole call, or released right after the exchange to go on live)."""
    comm = fd.comm
    release = comm.timed(rank, call.offset_cost, "offset_exch")
    if call.parked is None:
        call.parked = Event(comm.sim, name="ext2ph:parked")
        # Where this rank's own resume would have been queued: the
        # aggregators that arrived before it run first, as they did.
        release.callbacks.append(partial(_release_parked, fd, call))
    call.parked_ranks.append(rank)
    call.parked_t0.append(prof.mark())
    call.parked_seconds.append(prof.profile.seconds)
    return call.parked


def _release_parked(fd: ADIOFile, call: CollectiveCallState, _event: Event) -> None:
    """The offset exchange released: do for every parked rank at once what
    each would do on its own resume — lap the exchange, derive the plan if
    no aggregator has yet, and join the timed ladder — then hand them to
    the ladder's final release."""
    comm = fd.comm
    now = comm.sim.now
    for seconds, t0 in zip(call.parked_seconds, call.parked_t0):
        seconds["offset_exch"] = seconds.get("offset_exch", 0.0) + (now - t0)
    if call.table is None:
        _gather_offsets(fd, call)
    if call.max_end >= call.min_st:
        if call.domains is None:
            _partition(fd, call)
        if not call.prepared:
            _prepare_model(fd, call)
    parked = call.parked
    carried = call.ladder_steps is not None
    profiler = comm.sim.profiler
    if profiler is not None:  # counts ranks, not the processes standing for them
        ranks = sum([1 + len(comm.members[r]) for r in call.parked_ranks])
        profiler.count("ext2ph.park_single" if carried else "ext2ph.park_live", ranks)
    if not carried:
        parked._fire_inline(False)
        return
    final = comm.timed_ladder(
        call.index,
        call.parked_ranks,
        call.parked_seconds,
        call.ladder_steps,
        call.ladder_width,
        tail=_POST_WRITE_TAIL,
    )
    # After the ladder's final hook (queued at creation, it writes the
    # members' last laps) and ahead of the live ranks, which reach the
    # tail only after the last round: where each member's own resume sat.
    final.callbacks.append(lambda _ev: parked._fire_inline(True))


def _gather_offsets(fd: ADIOFile, call: CollectiveCallState) -> None:
    """Step 1's result: the call's table and the offsets read off it."""
    table = call.table = AccessTable.gather(call.accesses, fd.comm.size)
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
            payload = (ws.offsets, ws.lengths, access.payload_for(ws))
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
    return written


def _assemble(
    pieces: list[tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]]
) -> tuple[list[tuple[int, int]], list[Optional[np.ndarray]]]:
    """Merge received (offsets, lengths, payload) pieces into contiguous
    segments with assembled data (None when any contributor was virtual)."""
    cover = IntervalSet()
    for offs, lens, _ in pieces:
        for o, l in zip(offs, lens):
            cover.add(int(o), int(o) + int(l))
    segments = list(cover)
    have_data = all(p[2] is not None for p in pieces) and bool(segments)
    if not have_data:
        return segments, [None] * len(segments)
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
    been planned before) and decide whether it takes the timed ladder."""
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
    _plan_ladder(fd, call)


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


def _plan_ladder(fd: ADIOFile, call: CollectiveCallState) -> None:
    """Decide, once per call, whether the ranks that take no per-round
    action cross the round loop on the timed ladder, and with which steps.

    Members are the non-aggregators plus the aggregators whose domain is
    empty or receives nothing in any round.  The ladder needs at least one
    round to cover and at least one live rank to drive its slots.
    """
    if call.ntimes <= 0 or not call.ladders:
        return
    receives = call.recv_bytes.any(axis=1)
    call.idle_aggs = frozenset(
        i for i, d in enumerate(call.domains) if d.size <= 0 or not receives[i]
    )
    width = fd.comm.size - len(fd.aggregators) + len(call.idle_aggs)
    if not 0 < width < fd.comm.size:
        return
    call.ladder_width = width
    a2a = (call.a2a_label, call.alltoall_cost, "shuffle_all2all")
    steps = call.ladder_steps = []
    for duration in call.round_durations:
        steps.append(a2a)
        steps.append((call.x_label, duration, "comm"))


def _rounds_model(fd: ADIOFile, rank: int, call: CollectiveCallState, prof: Profiler):
    comm = fd.comm
    if not call.prepared:
        _prepare_model(fd, call)
    agg_idx = fd.agg_index.get(rank)

    # ---- timed-ladder fast path -------------------------------------------------
    # A rank that takes no per-round action (not an aggregator, or an
    # aggregator whose domain is empty / receives nothing in any round)
    # only marches through the 2·ntimes timed slots and step 5's error
    # allreduce.  Pre-register it into all of them at once and park it on
    # the final release event: one resume for the rest of the call instead
    # of 2·ntimes + 1.  Release timestamps, profiler phase totals, and
    # event counts are byte-identical to the round-by-round path (see
    # timed_ladder); tier-1 proves it against the reference stack, which
    # keeps this loop.  Parked non-aggregators join in one batch
    # (_release_parked); whoever else qualifies joins here, alone.
    if call.ladder_steps is not None and (agg_idx is None or agg_idx in call.idle_aggs):
        yield comm.timed_ladder(
            call.index,
            [rank],
            [prof.profile.seconds],
            call.ladder_steps,
            call.ladder_width,
            tail=_POST_WRITE_TAIL,
        )
        return _LADDER_DONE

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
    return written
