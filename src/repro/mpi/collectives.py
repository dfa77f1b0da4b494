"""Collective operations.

Two interchangeable engines:

* :class:`ModelCollectives` — arrival-synchronised cost models.  Every rank
  entering its *n*-th collective joins slot *n*; when the last rank arrives,
  the slot computes the result and a LogGP-style duration, then releases all
  ranks together.  This preserves the property the paper's analysis hinges
  on — a collective costs each rank ``(t_last_arrival - t_my_arrival) +
  t_algorithm`` — while firing O(P) events per collective instead of
  O(P log P) messages.

* :class:`AlgorithmicCollectives` — the real message-passing algorithms
  (binomial bcast, recursive-doubling allreduce/barrier, pairwise-exchange
  alltoall) over the point-to-point transport.  Used at small scale to
  validate that the model engine's results and orderings are faithful.

Both return identical values; tests assert it.

The model engine also carries the **timed ladder**
(:meth:`ModelCollectives.timed_ladder`): ranks that take no action inside
a run of back-to-back pre-costed slots — the two-phase round loop as seen
by everyone but the receiving aggregators — are counted into every slot
of the run at once, in batches, and resume on its final release, with
their per-slot profiler laps reproduced bit for bit by release hooks.
docs/PERFORMANCE.md ("Plan once, park once") has the argument for why no
timestamp, lap or event count moves.

**Rank classes** (:meth:`ModelCollectives.set_classes`): one rank may
arrive for a whole class of ranks that only ever follow (the
non-aggregators of a collective write reach every collective in one
instant and decide nothing).  Each of its arrivals files an entry for every
other member (``members[rank]``) and counts their weight, so call sites
keep passing one rank and a rank on its own is a class of one through the
same code; where ranks differ a class is refused by name (``alone``).

Paper correspondence: the collectives the §II-A algorithm leans on
(alltoall dissemination, allreduce epilogue, barrier-style sync).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.net.message import Transport
from repro.sim.core import Event, SimError, Simulator

Op = Callable[[Any, Any], Any]


def op_sum(a, b):
    return a + b


def op_max(a, b):
    return a if a >= b else b


def op_min(a, b):
    return a if a <= b else b


def op_band(a, b):
    return a & b


def op_bor(a, b):
    return a | b


def _memoised(method):
    """Cache a :class:`CollectiveCosts` closed form per argument tuple on
    the object: every collective of a run asks for the same two or three."""
    name = method.__name__

    @functools.wraps(method)
    def cached(self, *args):
        key = (name, *args)
        memo = self._memo
        if key not in memo:
            memo[key] = method(self, *args)
        return memo[key]

    return cached


@dataclass(frozen=True)
class CollectiveCosts:
    """Calibrated latency/bandwidth parameters for the model engine.

    Frozen: a parameter that changed after a closed form was memoised
    would make the memo lie.
    """

    alpha: float  # per-stage latency (seconds)
    beta_inv: float  # per-byte time on the NIC (1 / bandwidth)
    per_message: float  # CPU cost to post/match one message
    procs_per_node: int = 1
    shm_beta_inv: float = 0.0  # per-byte time of intra-node shared-memory moves
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @_memoised
    def stages(self, nprocs: int) -> int:
        return max(1, math.ceil(math.log2(max(2, nprocs))))

    def latency_bound(self, nprocs: int) -> float:
        return self.alpha * self.stages(nprocs)

    @_memoised
    def small_collective(self, nprocs: int, nbytes: int = 8) -> float:
        """Barrier / scalar allreduce: 2·log2(P) latency stages."""
        return 2 * self.latency_bound(nprocs) + nbytes * self.beta_inv * self.stages(nprocs)

    @_memoised
    def alltoall(self, nprocs: int, per_pair_bytes: float) -> float:
        """Pairwise exchange: P-1 rounds; per-node traffic shares the NIC."""
        fan = max(1, nprocs - 1)
        node_bytes = per_pair_bytes * fan * self.procs_per_node
        return (
            self.latency_bound(nprocs)
            + fan * self.per_message
            + node_bytes * self.beta_inv
        )

    def shuffle(self, out_bytes_per_node: dict[int, float], in_bytes_per_node: dict[int, float], max_msgs: int) -> float:
        """Bulk data exchange bounded by the hottest NIC in either direction."""
        hot_out = max(out_bytes_per_node.values(), default=0.0)
        hot_in = max(in_bytes_per_node.values(), default=0.0)
        return (
            self.alpha
            + max(hot_out, hot_in) * self.beta_inv
            + max_msgs * self.per_message
        )


@dataclass
class _Slot:
    op_name: str = ""
    arrivals: dict[int, Any] = field(default_factory=dict)
    release: dict[int, Event] = field(default_factory=dict)
    extra: dict[str, Any] = field(default_factory=dict)
    shared: Optional[Event] = None  # bulk data plane: one release for all ranks
    # Ladder pre-registration (see ModelCollectives.timed_ladder): ranks
    # counted as arrived without an entry in ``arrivals``.  ``pre_duration``
    # is the duration every pre-registered rank would have passed — by
    # construction identical to what the live arrivals pass.
    pre: int = 0
    pre_duration: float = 0.0


class _Ladder:
    """Bookkeeping for one pre-registered run of timed slots.

    Members (ranks that take no per-round action) are counted into every
    slot of the run up-front; the ladder reproduces their per-round
    profiler laps bit-for-bit via release hooks.  Members with identical
    starting phase totals share one running sum (``groups``), so the
    float accumulation sequence ``s0 + d0 + d1 + ...`` matches what each
    member's own ``lap`` calls would have produced.

    ``width`` is how many members the slots were told to expect
    (``slot.pre``); ``joined`` counts the ones that really came, and the
    release hooks refuse to go on when the two differ.
    """

    __slots__ = (
        "call",
        "base",
        "span",
        "width",
        "joined",
        "t_prev",
        "phases",
        "final",
        "groups",
        "members",
        "tail_slot",
    )

    def __init__(
        self,
        call: int,
        base: int,
        span: int,
        width: int,
        now: float,
        phases: tuple[str, ...],
    ):
        self.call = call
        self.base = base
        self.span = span  # slots covered, tail included
        self.width = width
        self.joined = 0
        self.t_prev = now  # release time of the previous slot (creation = round-0 arrival)
        self.phases = phases
        self.final: Optional[Event] = None
        self.groups: dict[tuple, dict[str, float]] = {}
        self.members: dict[tuple, list[dict[str, float]]] = {}
        self.tail_slot: Optional[_Slot] = None

    def join(self, seconds: list[dict[str, float]], weight: int) -> None:
        self.joined += weight  # ranks; a class shares one of the ``seconds``
        if self.joined > self.width:
            raise SimError(
                f"timed ladder of collective call {self.call}: "
                f"{self.width} members expected, {self.joined} joined"
            )
        phases = self.phases
        members = self.members
        for totals in seconds:
            key = tuple([totals.get(p, 0.0) for p in phases])
            group = members.get(key)
            if group is None:
                self.groups[key] = dict(zip(phases, key))
                members[key] = [totals]
            else:
                group.append(totals)


class _LadderHook:
    """Per-slot release callback: advances every group's running phase sum.

    Appended to the slot's shared event at ladder creation — before any
    member's resume callback — so the final slot's write-back lands before
    members continue past the run.
    """

    __slots__ = ("model", "ladder", "phase", "final")

    def __init__(self, model: "ModelCollectives", ladder: _Ladder, phase: str, final: bool):
        self.model = model
        self.ladder = ladder
        self.phase = phase
        self.final = final

    def __call__(self, _event: Event) -> None:
        ladder = self.ladder
        if ladder.joined != ladder.width:
            # ``slot.pre`` counts ``width`` ranks into every slot of the run
            # whether or not they came (every batch joins before the first
            # slot can release): this slot released without ranks it should
            # have waited for.
            raise SimError(
                f"timed ladder of collective call {ladder.call}: "
                f"{ladder.width} members expected, {ladder.joined} joined"
            )
        now = self.model.sim.now
        dt = now - ladder.t_prev
        ladder.t_prev = now
        phase = self.phase
        for sums in ladder.groups.values():
            sums[phase] = sums[phase] + dt
        if self.final:
            groups = ladder.groups
            for key, members in ladder.members.items():
                sums = groups[key]
                for seconds in members:
                    seconds.update(sums)
            del self.model._ladders[ladder.call]


class ModelCollectives:
    """Arrival-synchronised collectives with analytic durations.

    ``shared_release`` (the production stack) releases every rank through one
    shared event instead of one event per rank.  Per-rank release events are
    scheduled back-to-back in arrival order by :meth:`_complete`, so they
    fire consecutively with nothing interleaved; the shared event resumes
    the same rank continuations in the same (arrival) order within one
    event — timestamps and results are identical, events are O(1) per
    collective instead of O(P).
    """

    def __init__(
        self,
        sim: Simulator,
        nprocs: int,
        costs: CollectiveCosts,
        rank_to_node: Optional[list[int]] = None,
        shared_release: bool = False,
    ):
        self.sim = sim
        self.nprocs = nprocs
        self.costs = costs
        self.rank_to_node = rank_to_node or list(range(nprocs))
        self.shared_release = shared_release
        self._slot_index = [0] * nprocs
        # Rank classes: the other ranks each rank's arrivals stand for.
        self.members: list[tuple[int, ...]] = [()] * nprocs
        self._slots: dict[int, _Slot] = {}
        self._ladders: dict[int, _Ladder] = {}

    def set_classes(self, classes) -> None:
        """Let the first rank of each class in ``classes`` (a partition of
        ``range(nprocs)``) arrive for all of it.  Members' slot indices do
        not advance with their representative's: former classes are first
        brought level with it, which needs every slot settled, and nobody
        joins a class from a different slot."""
        if self._slots:
            raise SimError(f"rank classes cannot change with slot {min(self._slots)} in flight")
        if not self.shared_release and any(len(ranks) > 1 for ranks in classes):
            raise SimError("rank classes: per-rank (non-shared) release is per rank")
        slot_index = self._slot_index
        for rep, members in enumerate(self.members):
            for rank in members:
                slot_index[rank] = slot_index[rep]
        new: list = [None] * self.nprocs
        for ranks in classes:
            for rank in ranks:
                if not 0 <= rank < self.nprocs or new[rank] is not None:
                    raise SimError(f"rank classes: rank {rank} is in two classes, or no rank")
                if slot_index[rank] != slot_index[ranks[0]]:
                    raise SimError(
                        f"rank classes: rank {rank} is at slot {slot_index[rank]}, its "
                        f"representative rank {ranks[0]} at slot {slot_index[ranks[0]]}"
                    )
                new[rank] = ()
            new[ranks[0]] = tuple(ranks[1:])
        if None in new:
            raise SimError(f"rank classes: rank {new.index(None)} is in no class")
        self.members[:] = new  # in place: the communicator shares the list

    def alone(self, rank: int, path: str) -> None:
        """Refuse ``path``, on which ranks differ, to a rank standing for others."""
        if self.members[rank]:
            raise SimError(
                f"rank {rank} stands for {len(self.members[rank])} more ranks, "
                f"which may only follow: {path} is per rank"
            )

    def arrive(self, rank: int, op_name: str, value: Any = None, **extra) -> Event:
        """Join this rank's next collective slot and return the event that
        releases it — the slot's shared one, or this rank's own — for the
        rank body to ``yield``.  The event's value is the collective's
        results by rank (None for ``timed:`` slots: nobody reads them);
        :meth:`enter` picks this rank's."""
        idx = self._slot_index[rank]
        self._slot_index[rank] += 1
        try:  # a subscript, not ``.get``: all but the first arrival call nothing
            slot = self._slots[idx]
        except KeyError:
            slot = self._slots[idx] = _Slot(op_name=op_name)
            if self.shared_release:
                slot.shared = Event(self.sim, name=f"coll:{op_name}[{idx}]")
        if slot.op_name != op_name:
            raise SimError(
                f"collective mismatch at slot {idx}: rank {rank} called "
                f"{op_name!r} but others called {slot.op_name!r}"
            )
        slot.arrivals[rank] = value
        if self.members[rank]:
            slot.arrivals.update(dict.fromkeys(self.members[rank], value))
        if extra:  # not on the timed hot path
            for key, val in extra.items():
                slot.extra.setdefault(key, {})[rank] = val
        release = slot.shared
        if release is None:
            release = slot.release[rank] = Event(
                self.sim, name=f"coll:{op_name}[{idx}]r{rank}"
            )
        if len(slot.arrivals) + slot.pre == self.nprocs:
            self._complete(idx, slot)
        return release

    def enter(self, rank: int, op_name: str, value: Any = None, **extra):
        """Generator: :meth:`arrive`, wait for release, return this rank's result."""
        results = yield self.arrive(rank, op_name, value, **extra)
        return None if results is None else results[rank]

    # individual operations -------------------------------------------------
    def barrier(self, rank: int):
        return self.enter(rank, "barrier")

    def allreduce(self, rank: int, value: Any, op: Op = op_sum, nbytes: int = 8):
        return self.enter(rank, "allreduce", value, reduce_op=op, nbytes=nbytes)

    def allgather(self, rank: int, value: Any, nbytes: int = 8):
        return self.enter(rank, "allgather", value, nbytes=nbytes)

    def alltoall(self, rank: int, values: list[Any], per_pair_bytes: int = 16):
        if len(values) != self.nprocs:
            raise SimError(f"alltoall needs {self.nprocs} values, got {len(values)}")
        return self.enter(rank, "alltoall", values, nbytes=per_pair_bytes)

    def bcast(self, rank: int, value: Any, root: int = 0, nbytes: int = 8):
        return self.enter(rank, "bcast", (value if rank == root else None), root=root, nbytes=nbytes)

    def shuffle(self, rank: int, out_bytes: dict[int, float], msg_count: int = 0):
        """The ext2ph data exchange as a pseudo-collective.

        ``out_bytes`` maps destination rank -> bytes this rank sends there.
        Returns the per-rank inbound byte total (what this rank received).
        """
        return self.enter(rank, "shuffle", out_bytes, msgs=msg_count)

    def timed(self, rank: int, duration: float, label: str = "timed") -> Event:
        """A pre-costed synchronisation: all ranks arrive, all are released
        ``max(duration)`` after the last arrival.  Used when the exchange
        cost has been computed centrally (vectorised over rounds).  There is
        no result to pick, so this returns the release event itself for the
        rank body to ``yield`` — no generator frame per rank per round."""
        return self.arrive(rank, f"timed:{label}", duration)

    def timed_ladder(
        self,
        call: int,
        ranks: list[int],
        seconds: list[dict[str, float]],
        steps: list[tuple[str, float, str]],
        width: int,
        tail: Optional[tuple] = None,
    ) -> Event:
        """Pre-register ``ranks`` into their next ``len(steps)`` timed slots.

        The fast path for ranks that take *no per-round action* inside a
        run of back-to-back timed collectives (the ext2ph round loop seen
        by non-aggregators): instead of arriving at each of the ``2n``
        slots round by round — one resume + one arrival per slot — the
        ranks are counted into every slot at once and wait on the final
        slot's shared release event, which this method returns.

        ``call`` numbers the caller's collective call: every batch of one
        call joins the same ladder, created by the first batch.  ``ranks``
        and ``seconds`` are parallel — the members of this batch and their
        profiler phase dicts (a rank that stands for a class brings the
        class's one dict and the weight of all its ranks, here and in the
        tail); release hooks reproduce each member's
        per-round lap additions bit-for-bit (see :class:`_Ladder`), so
        phase totals are byte-identical to the round-by-round path.
        ``steps`` is the run's ``(label, duration, phase)`` sequence; the
        durations must equal what the live ranks pass through
        :meth:`timed` for the same slots (they are computed from the
        same shared call state).  ``width`` is the total number of ranks,
        over all batches, that will take this ladder (all must, and none
        may also arrive live): the slots count ``width`` arrivals from the
        moment the ladder exists, so they complete independently of *when*
        each batch joins (all must before the first slot releases), and
        the ladder raises if more come or, at a release, fewer have.
        Every member must stand at the ladder's first slot; one that does
        not is refused rather than silently re-based.

        Timestamp identity: completion of a slot moves earlier only
        *within* the release instant of the previous slot (pre-counted
        ranks would have arrived in that same instant, after callbacks
        that do no scheduling), so all release times — and therefore all
        durations charged to every rank — are unchanged.

        ``tail`` optionally extends the run with one trailing *value*
        collective ``(op_name, value, extra, phase)`` shared with the
        live ranks (ext2ph's post-write allreduce): each member's arrival
        is recorded in the tail slot's ``arrivals`` — NOT pre-counted,
        because value collectives fold ``arrivals[r]`` for every rank —
        and the ladder's final event is the tail's release instead.
        Arrival order is irrelevant to the fold (it walks ranks in index
        order), so members arriving at ladder creation rather than after
        round ``n`` changes no result.  The tail's release hook writes the
        members' final phase lap, replacing their own post-release lap;
        callers skip their live-path tail collective when the ladder
        covers it.
        """
        if not self.shared_release:  # pragma: no cover - callers gate on it
            raise SimError("timed_ladder requires shared_release collectives")
        slot_index = self._slot_index
        ladder = self._ladders.get(call)
        if ladder is None:
            ladder = self._create_ladder(call, slot_index[ranks[0]], steps, width, tail)
        base = ladder.base
        after = base + ladder.span
        arriving = ranks  # ... and the ranks they stand for
        for rank in ranks:
            if slot_index[rank] != base:
                raise SimError(
                    f"timed ladder of collective call {call}: rank {rank} is at "
                    f"slot {slot_index[rank]}, the ladder starts at slot {base}"
                )
            slot_index[rank] = after
            if self.members[rank]:
                arriving = [*arriving, *self.members[rank]]
        ladder.join(seconds, len(arriving))
        tail_slot = ladder.tail_slot
        if tail_slot is not None:
            _op, value, extra, _phase = tail
            tail_slot.arrivals.update(dict.fromkeys(arriving, value))
            for key, val in extra.items():
                tail_slot.extra.setdefault(key, {}).update(dict.fromkeys(ranks, val))
            # Live ranks cannot have all arrived yet (they are behind the
            # timed slots this ladder created), so no completion check is
            # needed here.
        return ladder.final

    def _create_ladder(
        self, call: int, base: int, steps, width: int, tail: Optional[tuple]
    ) -> _Ladder:
        if not steps or not 0 < width < self.nprocs:
            # No timed slot, or no live rank left to arrive at the later
            # ones: nothing would ever complete the run.
            raise SimError(
                f"timed ladder of collective call {call}: needs at least one "
                f"step and 0 < width < {self.nprocs} (got {len(steps)} steps, "
                f"width {width})"
            )
        sim = self.sim
        nsteps = len(steps)
        phases: list[str] = []
        for _label, _duration, phase in steps:
            if phase not in phases:
                phases.append(phase)
        if tail is not None and tail[3] not in phases:
            phases.append(tail[3])
        has_tail = tail is not None
        ladder = _Ladder(call, base, nsteps + has_tail, width, sim.now, tuple(phases))
        self._ladders[call] = ladder
        for j, (label, duration, phase) in enumerate(steps):
            op_name = f"timed:{label}"
            idx = base + j
            # Slot 0 may already exist (live ranks resumed ahead of the
            # first member within this instant); later slots cannot — the
            # lock-step live ranks cannot pass slot 0 before the ladder's
            # pre-registrations land.
            slot = self._slots.get(idx)
            if slot is None:
                slot = self._slots[idx] = _Slot(op_name=op_name)
                slot.shared = Event(self.sim, name=f"coll:{op_name}[{idx}]")
            elif slot.op_name != op_name:
                raise SimError(
                    f"collective mismatch at slot {idx}: ladder step "
                    f"{op_name!r} but others called {slot.op_name!r}"
                )
            slot.pre = width
            slot.pre_duration = duration
            # Before any member resume callback: members wait on the final
            # event only after this loop runs.
            final = j == nsteps - 1 and not has_tail
            slot.shared.callbacks.append(_LadderHook(self, ladder, phase, final))
        if has_tail:
            tail_op, _value, _extra, tail_phase = tail
            idx = base + nsteps
            slot = self._slots.get(idx)
            if slot is None:
                slot = self._slots[idx] = _Slot(op_name=tail_op)
                slot.shared = Event(self.sim, name=f"coll:{tail_op}[{idx}]")
            elif slot.op_name != tail_op:  # pragma: no cover - symmetric callers
                raise SimError(
                    f"collective mismatch at slot {idx}: ladder tail "
                    f"{tail_op!r} but others called {slot.op_name!r}"
                )
            slot.shared.callbacks.append(_LadderHook(self, ladder, tail_phase, True))
            ladder.tail_slot = slot
            ladder.final = slot.shared
        else:
            ladder.final = self._slots[base + nsteps - 1].shared
        first = self._slots[base]
        if len(first.arrivals) + first.pre == self.nprocs:
            self._complete(base, first)
        return ladder

    # completion -------------------------------------------------------------
    def _complete(self, idx: int, slot: _Slot) -> None:
        op = slot.op_name
        costs = self.costs
        if op == "barrier":
            duration = costs.small_collective(self.nprocs)
            results = {r: None for r in slot.arrivals}
        elif op == "allreduce":
            reduce_op: Op = next(iter(slot.extra["reduce_op"].values()))
            nbytes = next(iter(slot.extra["nbytes"].values()))
            acc = None
            for r in range(self.nprocs):
                v = slot.arrivals[r]
                acc = v if acc is None else reduce_op(acc, v)
            duration = costs.small_collective(self.nprocs, nbytes)
            results = {r: acc for r in slot.arrivals}
        elif op == "allgather":
            gathered = [slot.arrivals[r] for r in range(self.nprocs)]
            nbytes = next(iter(slot.extra["nbytes"].values()))
            duration = costs.small_collective(self.nprocs, nbytes * self.nprocs)
            results = {r: list(gathered) for r in slot.arrivals}
        elif op == "alltoall":
            nbytes = next(iter(slot.extra["nbytes"].values()))
            results = {
                r: [slot.arrivals[s][r] for s in range(self.nprocs)]
                for r in slot.arrivals
            }
            duration = costs.alltoall(self.nprocs, nbytes)
        elif op == "bcast":
            roots = slot.extra["root"]
            root = next(iter(roots.values()))
            nbytes = next(iter(slot.extra["nbytes"].values()))
            value = slot.arrivals[root]
            duration = costs.latency_bound(self.nprocs) + nbytes * costs.beta_inv
            results = {r: value for r in slot.arrivals}
        elif op.startswith("timed:"):
            # Pre-registered ranks pass (by construction) the same duration
            # as every live arrival, so folding in ``pre_duration`` keeps
            # the max bit-identical to the all-live path.
            if slot.arrivals:
                duration = max(float(v) for v in slot.arrivals.values())
                if slot.pre and slot.pre_duration > duration:
                    duration = slot.pre_duration
            else:
                duration = float(slot.pre_duration)
            results = None  # no caller reads a timed slot's result
        elif op == "shuffle":
            out_node: dict[int, float] = {}
            in_node: dict[int, float] = {}
            in_rank = {r: 0.0 for r in slot.arrivals}
            msg_total = 0
            for src, outs in slot.arrivals.items():
                src_node = self.rank_to_node[src]
                for dst, nb in outs.items():
                    in_rank[dst] += nb
                    dst_node = self.rank_to_node[dst]
                    if dst_node != src_node:
                        out_node[src_node] = out_node.get(src_node, 0.0) + nb
                        in_node[dst_node] = in_node.get(dst_node, 0.0) + nb
                    msg_total += 1 if nb > 0 else 0
            per_rank_msgs = slot.extra.get("msgs", {})
            max_msgs = max(per_rank_msgs.values(), default=0) or max(
                (len([b for b in outs.values() if b > 0]) for outs in slot.arrivals.values()),
                default=0,
            )
            duration = costs.shuffle(out_node, in_node, max_msgs)
            results = in_rank
        else:  # pragma: no cover - guarded by enter()
            raise SimError(f"unknown collective {op!r}")
        if slot.shared is not None:
            slot.shared.succeed(results, delay=duration)
        else:
            for ev in slot.release.values():
                ev.succeed(results, delay=duration)
        del self._slots[idx]


class AlgorithmicCollectives:
    """Real message-passing collective algorithms over the transport.

    Only usable from inside rank processes; each operation is a generator.
    Tags are drawn from a reserved high range so they never collide with
    application traffic.
    """

    TAG_BASE = 1 << 24

    def __init__(self, sim: Simulator, transport: Transport, nprocs: int, payload_nbytes: Callable[[Any], int] = None):
        self.sim = sim
        self.transport = transport
        self.nprocs = nprocs
        self._epoch = [0] * nprocs
        self.payload_nbytes = payload_nbytes or (lambda v: 16)

    def _tag(self, rank: int, phase: int) -> int:
        # Per-collective-epoch, per-phase tag; epoch advances per call site.
        # 16 bits of phase space keeps pairwise alltoall steps collision-free
        # up to 64k ranks.
        return self.TAG_BASE + (self._epoch[rank] << 16) + phase

    def barrier(self, rank: int):
        yield from self.allreduce(rank, 0, op_sum)

    def allreduce(self, rank: int, value: Any, op: Op = op_sum):
        """Recursive doubling (power-of-two ranks fold the remainder first)."""
        n = self.nprocs
        epoch_tag = self._tag(rank, 0)
        self._epoch[rank] += 1
        pof2 = 1 << (n.bit_length() - 1) if n & (n - 1) else n
        rem = n - pof2
        acc = value
        newrank = rank
        if rank < 2 * rem:
            if rank % 2 == 0:  # even ranks in the remainder send and sit out
                yield self.transport.send(rank, rank + 1, epoch_tag, acc, self.payload_nbytes(acc))
                msg = yield self.transport.post_recv(rank, rank + 1, epoch_tag + 1)
                return msg.payload
            else:
                msg = yield self.transport.post_recv(rank, rank - 1, epoch_tag)
                acc = op(msg.payload, acc)
                newrank = rank // 2
        else:
            newrank = rank - rem
        mask = 1
        while mask < pof2:
            peer_new = newrank ^ mask
            peer = peer_new * 2 + 1 if peer_new < rem else peer_new + rem
            send_ev = self.transport.send(rank, peer, epoch_tag, acc, self.payload_nbytes(acc))
            recv_ev = self.transport.post_recv(rank, peer, epoch_tag)
            yield self.sim.all_of([send_ev, recv_ev])
            other = recv_ev.value.payload
            # commutative-op ordering: lower rank contributes first
            acc = op(other, acc) if peer < rank else op(acc, other)
            mask <<= 1
        if rank < 2 * rem and rank % 2 == 1:
            yield self.transport.send(rank, rank - 1, epoch_tag + 1, acc, self.payload_nbytes(acc))
        return acc

    def bcast(self, rank: int, value: Any, root: int = 0):
        """Binomial tree broadcast (the MPICH schedule)."""
        n = self.nprocs
        tag = self._tag(rank, 2)
        self._epoch[rank] += 1
        vrank = (rank - root) % n
        got = value if rank == root else None
        # Climb the mask until our set bit is found: that is our parent edge.
        mask = 1
        while mask < n:
            if vrank & mask:
                parent = ((vrank - mask) + root) % n
                msg = yield self.transport.post_recv(rank, parent, tag)
                got = msg.payload
                break
            mask <<= 1
        # Descend, forwarding to children below our edge.
        mask >>= 1
        while mask > 0:
            if vrank + mask < n:
                child = ((vrank + mask) + root) % n
                yield self.transport.send(rank, child, tag, got, self.payload_nbytes(got))
            mask >>= 1
        return got

    def alltoall(self, rank: int, values: list[Any]):
        """Pairwise exchange (XOR schedule for power-of-two, ring otherwise)."""
        n = self.nprocs
        tag = self._tag(rank, 3)
        self._epoch[rank] += 1
        if len(values) != n:
            raise SimError(f"alltoall needs {n} values")
        result: list[Any] = [None] * n
        result[rank] = values[rank]
        for step in range(1, n):
            if n & (n - 1) == 0:
                peer = rank ^ step
            else:
                peer = (rank + step) % n
                # ring schedule: receive from (rank - step) % n
            if n & (n - 1) == 0:
                send_to = recv_from = peer
            else:
                send_to = (rank + step) % n
                recv_from = (rank - step) % n
            send_ev = self.transport.send(rank, send_to, tag + step, values[send_to], self.payload_nbytes(values[send_to]))
            recv_ev = self.transport.post_recv(rank, recv_from, tag + step)
            yield self.sim.all_of([send_ev, recv_ev])
            result[recv_from] = recv_ev.value.payload
        return result

    def allgather(self, rank: int, value: Any):
        return self.alltoall(rank, [value] * self.nprocs)
