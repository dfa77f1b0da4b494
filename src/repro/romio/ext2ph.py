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
from repro.romio.fd import ADIOFile, CollectiveCallState
from repro.romio.profiling import Profiler
from repro.sim.core import SimError

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


def write_strided_coll(fd: ADIOFile, rank: int, access: RankAccess, prof: Profiler):
    """Generator: ``ADIOI_GEN_WriteStridedColl`` for one rank.

    Returns the number of bytes this rank contributed.
    """
    comm = fd.comm
    call = fd.call_state(rank)
    call.accesses[rank] = access

    # ---- step 1: offset exchange -------------------------------------------------
    t0 = prof.mark()
    if fd.exchange_mode == "flow":
        yield from comm.allgather(
            rank, (access.start_offset, access.end_offset), nbytes=16
        )
    else:
        cost = comm.costs.small_collective(comm.size, 16)
        if comm.sim.flat:
            yield comm.timed_event(rank, cost, "offset_exch")
        else:
            yield from comm.timed(rank, cost, "offset_exch")
    prof.lap("offset_exch", t0)

    # Every rank computes identical values from identical inputs (as in
    # ROMIO); in simulation every rank has registered its access by the
    # time the exchange releases, so the first one through gathers them
    # into the call's table and reads the offsets off its vectors.
    if call.table is None:
        table = call.table = AccessTable.gather(call.accesses, comm.size)
        profiler = fd.machine.sim.profiler
        if profiler is not None:
            shared = table is access.table
            profiler.count(
                "access.table_reuse" if shared else "access.table_gather_adhoc"
            )
        call.interleaved = table.interleaved
        call.min_st = table.min_st
        call.max_end = table.max_end

    use_collective = fd.hints.romio_cb_write == "enable" or (
        fd.hints.romio_cb_write == "automatic" and call.interleaved
    )
    if not use_collective:
        from repro.romio import datasieve  # local import to avoid a cycle

        nbytes = yield from datasieve.write_strided(fd, rank, access, prof)
        return nbytes

    if call.max_end < call.min_st:
        return 0

    # ---- step 2: file domains ----------------------------------------------------
    cb = fd.hints.cb_buffer_size
    if call.domains is None:
        call.domains = fd.driver.partition_domains(fd, call.min_st, call.max_end)
        call.ntimes = max(
            (-(-d.size // cb) for d in call.domains if d.size > 0), default=0
        )

    # Aggregators pin their collective buffer for the whole operation
    # (the memory-pressure effect of big cb_buffer_size, paper point (d)).
    node = fd.machine.nodes[comm.node_of(rank)]
    pinned = 0
    if fd.is_aggregator(rank):
        pinned = cb
        node.pin_memory(pinned)

    try:
        if fd.exchange_mode == "flow":
            nbytes = yield from _rounds_flow(fd, rank, access, call, prof)
        else:
            nbytes = yield from _rounds_model(fd, rank, access, call, prof)
    finally:
        if pinned:
            node.unpin_memory(pinned)

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
    if comm.flat_events:
        yield comm.allreduce_event(rank, 0, op_max, nbytes=4)
    else:
        yield from comm.allreduce(rank, 0, op_max, nbytes=4)
    prof.lap("post_write", t0)
    # MPI semantics: the call reports this rank's own contribution; ``nbytes``
    # (what this rank wrote as an aggregator) only feeds internal accounting.
    return access.total_bytes


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


_MODEL_CACHE_MAX = 64
_MODEL_CACHE_EXTENT_CAP = 64  # per-rank extents; larger patterns skip the memo


def _model_cache_key(fd: ADIOFile, call: CollectiveCallState, cb: int):
    """Translation-normalised content key for the per-round model arrays,
    or ``None`` when the pattern is too large to fingerprint cheaply.

    Every input the cached arrays depend on is in the key: the table's
    translation-normalised digest (every rank's shifted extents), the
    shifted domains, the rank->node map, the aggregator list,
    the collective cost parameters, and the physical node count.  All the
    cached quantities are functions of byte counts inside shifted windows,
    so they are invariant under a common offset translation — patterns
    that differ only by a constant file offset (IOR segments, the per-file
    phases of a run) share one entry, bit for bit.
    """
    comm = fd.comm
    P = comm.size
    base = call.min_st
    if call.table.max_rank_extents > _MODEL_CACHE_EXTENT_CAP:
        return None
    costs = comm.costs
    return (
        P,
        len(fd.aggregators),
        call.ntimes,
        cb,
        len(fd.machine.nodes),
        costs.alpha,
        costs.beta_inv,
        costs.per_message,
        costs.procs_per_node,
        costs.shm_beta_inv,
        fd.machine.config.network.piece_overhead,
        tuple(fd.aggregators),
        tuple(comm.rank_to_node),
        tuple((d.start - base, d.end - base, d.aggregator_rank) for d in call.domains),
        call.table.digest,
    )


def _prepare_model(fd: ADIOFile, call: CollectiveCallState, cb: int) -> None:
    machine = fd.machine
    key = _model_cache_key(fd, call, cb)
    cache = None
    if key is not None:
        cache = getattr(machine, "_ext2ph_model_cache", None)
        if cache is None:
            cache = machine._ext2ph_model_cache = {}
        profiler = machine.sim.profiler
        hit = cache.get(key)
        if hit is not None:
            if profiler is not None:
                profiler.count("ext2ph.model_cache_hit")
            (
                call.sends,
                call.recv_bytes,
                call.recv_pieces,
                call.shuffle_durations,
                call.alltoall_cost,
                merged_norm,
            ) = hit
            base = call.min_st
            call.merged_cov = (merged_norm[0] + base, merged_norm[1] + base)
            call.prepared = True
            return
        if profiler is not None:
            profiler.count("ext2ph.model_cache_miss")
    comm = fd.comm
    P = comm.size
    naggs = len(fd.aggregators)
    ntimes = call.ntimes
    domains = call.domains
    bounds = np.empty((naggs, ntimes + 1), dtype=np.int64)
    for i, d in enumerate(domains):
        row = d.start + cb * np.arange(ntimes + 1, dtype=np.int64)
        np.clip(row, d.start, max(d.start, d.end), out=row)
        bounds[i] = row
    sends, pieces = call.table.window_sums(bounds)
    call.sends = sends
    call.recv_bytes = sends.sum(axis=0)  # (naggs, ntimes)
    call.recv_pieces = pieces.sum(axis=0)  # (naggs, ntimes)

    node_of = np.asarray(comm.rank_to_node, dtype=np.int64)
    agg_node = np.array([comm.node_of(a) for a in fd.aggregators], dtype=np.int64)
    cross = (node_of[:, None] != agg_node[None, :]).astype(np.int64)
    crossed = sends * cross[:, :, None]  # bytes that traverse NICs
    local = sends - crossed  # intra-node bytes (shared-memory transport)
    # Physical node count: a fleet JobView's config is job-sized, but the
    # node arrays below are indexed by physical node ids.
    num_nodes = len(fd.machine.nodes)
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
    call.shuffle_durations = (
        costs.alpha
        + np.maximum(hot * costs.beta_inv, loop_hot * costs.shm_beta_inv)
        + msgs * costs.per_message
        + pack
    )
    call.alltoall_cost = costs.alltoall(P, 16)
    call.merged_cov = call.table.coverage  # merged extents for aggregator writes
    if cache is not None:
        if len(cache) >= _MODEL_CACHE_MAX:
            cache.clear()
        merged = call.merged_cov
        base = call.min_st
        cache[key] = (
            call.sends,
            call.recv_bytes,
            call.recv_pieces,
            call.shuffle_durations,
            call.alltoall_cost,
            (merged[0] - base, merged[1] - base),
        )
    call.prepared = True


def _rounds_model(fd: ADIOFile, rank: int, access: RankAccess, call, prof: Profiler):
    comm = fd.comm
    cb = fd.hints.cb_buffer_size
    if not call.prepared:
        _prepare_model(fd, call, cb)
    written = 0
    agg_idx = fd.agg_index.get(rank)
    domain = call.domains[agg_idx] if agg_idx is not None else None
    merged = call.merged_cov
    node = fd.machine.nodes[comm.node_of(rank)]
    label = f"c{call.index}"
    sim = fd.machine.sim
    bulk = getattr(fd.machine, "dataplane", "chunked") == "bulk"
    piece_overhead = fd.machine.config.network.piece_overhead
    memcpy_bw = fd.machine.config.ram.memcpy_bw
    flat = sim.flat  # flat engine: yield the release event, skip timed()'s frame
    a2a_label = f"a2a.{label}"
    x_label = f"x.{label}"

    # ---- timed-ladder fast path -------------------------------------------------
    # A rank that takes no per-round action (not an aggregator, or an
    # aggregator whose domain is empty / receives nothing in any round)
    # only marches through the 2·ntimes timed slots.  Pre-register it into
    # all of them at once and park it on the final release event: one
    # resume for the whole round loop instead of 2·ntimes.  Release
    # timestamps, profiler phase totals, and event counts are byte-
    # identical to the round-by-round path (see timed_ladder); the A/B
    # harness proves it against the heapq engine, which keeps this loop.
    if (
        bulk
        and comm.flat_events  # flat engine + model collectives + shared release:
        # the tail slot below is completed by the live ranks' allreduce_event
        and call.ntimes > 0
        and getattr(fd.machine, "faults", None) is None
        and (agg_idx is None or domain.size <= 0 or not call.recv_bytes[agg_idx].any())
    ):
        width = call.ladder_width
        if width is None:
            idle_aggs = sum(
                1
                for i, d in enumerate(call.domains)
                if d.size <= 0 or not call.recv_bytes[i].any()
            )
            width = call.ladder_width = comm.size - len(fd.aggregators) + idle_aggs
        if 0 < width < comm.size:
            steps = call.ladder_steps
            if steps is None:
                steps = call.ladder_steps = []
                for r in range(call.ntimes):
                    steps.append((a2a_label, call.alltoall_cost, "shuffle_all2all"))
                    steps.append((x_label, float(call.shuffle_durations[r]), "comm"))
            # The tail extends the ladder through step 5's error allreduce:
            # the member's arrival value/extra match the live ranks', the
            # fold walks ranks in index order (arrival order irrelevant),
            # and the tail hook writes the ``post_write`` lap — so members
            # park once for the whole call: 2 resumes instead of 3.
            yield comm.timed_ladder(
                rank,
                steps,
                width,
                prof.profile.seconds,
                tail=("allreduce", 0, {"reduce_op": op_max, "nbytes": 4}, "post_write"),
            )
            return _LADDER_DONE

    for r in range(call.ntimes):
        t0 = prof.mark()
        if flat:
            yield comm.timed_event(rank, call.alltoall_cost, a2a_label)
        else:
            yield from comm.timed(rank, call.alltoall_cost, a2a_label)
        prof.lap("shuffle_all2all", t0)
        t0 = prof.mark()
        if flat:
            yield comm.timed_event(rank, float(call.shuffle_durations[r]), x_label)
        else:
            yield from comm.timed(rank, float(call.shuffle_durations[r]), x_label)
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
            yield from node.memcpy(recv)
        prof.lap("memcpy", t0)
        lo = domain.start + r * cb
        hi = min(domain.end, lo + cb)
        t0 = prof.mark()
        for s, e in coverage_in_window(merged[0], merged[1], lo, hi):
            yield from fd.driver.write_contig(fd, rank, s, e - s, None)
            written += e - s
        prof.lap("write", t0)
    return written
