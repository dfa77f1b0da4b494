"""Collective operations.

:class:`ModelCollectives` — arrival-synchronised cost models, the one
engine a :class:`~repro.mpi.comm.Communicator` runs.  Every rank entering
its *n*-th collective joins slot *n*; when the last rank arrives, the slot
computes the result and a LogGP-style duration, then releases all ranks
together.  This preserves the property the paper's analysis hinges on — a
collective costs each rank ``(t_last_arrival - t_my_arrival) +
t_algorithm`` — while firing O(P) events per collective instead of
O(P log P) messages.  There is no message-passing engine: the values each
collective returns are pinned by literal expectations in
``tests/mpi/test_collectives.py``.

**Rank classes** (:meth:`ModelCollectives.set_classes`): one rank may
arrive for a whole class of ranks that only ever follow (the
non-aggregators of a collective write reach every collective in one
instant and decide nothing).  Each of its arrivals counts the weight of
all members (``members[rank]``) and, where the collective has per-rank
values, files an entry for each, so call sites keep passing one rank and a
rank on its own is a class of one through the same code; where ranks differ
a class is refused by name (``alone``).

A ``timed:`` slot — a pre-costed synchronisation — files nothing: it keeps
a count and the longest duration passed.  On the production stack only a
collective write's offset exchange is one; its rounds run on the call's
clock (``romio.ext2ph.CallClock``), which :meth:`ModelCollectives.set_classes`
knows of so that classes cannot change under it (no rank is carried
through per-round slots).

Paper correspondence: the collectives the §II-A algorithm leans on
(alltoall dissemination, allreduce epilogue, barrier-style sync).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.sim.core import Event, SimError, Simulator

Op = Callable[[Any, Any], Any]


def op_sum(a, b):
    return a + b


def op_max(a, b):
    return a if a >= b else b


def op_min(a, b):
    return a if a <= b else b


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


@dataclass
class _Slot:
    op_name: str = ""
    timed: bool = False  # a ``timed:`` slot: no values, only the longest duration
    count: int = 0  # ranks arrived, by weight (a class counts all its members)
    duration: Any = None  # timed: the running maximum, first arrival winning ties
    arrivals: dict[int, Any] = field(default_factory=dict)  # value slots only
    release: dict[int, Event] = field(default_factory=dict)
    extra: dict[str, Any] = field(default_factory=dict)
    shared: Optional[Event] = None  # Simulator.shared_releases: one release for all ranks


# The collective whose result differs from rank to rank; every other one
# releases all ranks with the same object, which the release event carries.
_PER_RANK = "alltoall"


class ModelCollectives:
    """Arrival-synchronised collectives with analytic durations.

    Where the engine allows it (``Simulator.shared_releases``: the slotted
    engine, not the heapq one) every rank of a slot is released through one
    shared event instead of one event per rank.  Per-rank release events are
    scheduled back-to-back in arrival order by :meth:`_complete`, so they
    fire consecutively with nothing interleaved; the shared event resumes
    the same rank continuations in the same (arrival) order within one
    event — timestamps and results are identical, events are O(1) per
    collective instead of O(P).
    """

    def __init__(self, sim: Simulator, nprocs: int, costs: CollectiveCosts):
        self.sim = sim
        self.nprocs = nprocs
        self.costs = costs
        # The engine decides, once: see Simulator.shared_releases.
        self.shared_release = sim.shared_releases
        self._slot_index = [0] * nprocs
        # Rank classes: the other ranks each rank's arrivals stand for, and
        # the rank that arrives for each rank (itself, unless it only follows).
        self.members: list[tuple[int, ...]] = [()] * nprocs
        self.leaders: list[int] = list(range(nprocs))
        self._slots: dict[int, _Slot] = {}
        #: The collective write that runs on its own clock between two slots
        #: (``romio.ext2ph.CallClock``), if one does: classes stay as they are.
        self.clock: Any = None

    def set_classes(self, classes) -> None:
        """Let the first rank of each class in ``classes`` (a partition of
        ``range(nprocs)``) arrive for all of it.  Members' slot indices do
        not advance with their representative's: former classes are first
        brought level with it, which needs every slot settled, and nobody
        joins a class from a different slot."""
        if self._slots:
            raise SimError(f"rank classes cannot change with slot {min(self._slots)} in flight")
        if self.clock is not None:
            raise SimError(f"rank classes cannot change while {self.clock} runs on its clock")
        if not self.shared_release and any(len(ranks) > 1 for ranks in classes):
            raise SimError(
                f"rank classes: the {self.sim.kind} engine releases every rank on its own event"
            )
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
        self.members[:] = new  # in place: the communicator shares the lists
        for ranks in classes:
            for rank in ranks:
                self.leaders[rank] = ranks[0]

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
        result: by rank where ranks differ (``_PER_RANK``), else the one
        object every rank gets (None for ``timed:`` slots and barriers);
        :meth:`enter` picks this rank's."""
        idx = self._slot_index[rank]
        self._slot_index[rank] += 1
        try:  # a subscript, not ``.get``: all but the first arrival call nothing
            slot = self._slots[idx]
        except KeyError:
            slot = self._slots[idx] = _Slot(op_name, op_name.startswith("timed:"))
            if self.shared_release:
                slot.shared = Event(self.sim, name=f"coll:{op_name}[{idx}]")
        if slot.op_name != op_name:
            raise SimError(
                f"collective mismatch at slot {idx}: rank {rank} called "
                f"{op_name!r} but others called {slot.op_name!r}"
            )
        members = self.members[rank]
        slot.count += 1 + len(members) if members else 1
        if slot.timed:
            # Nobody reads a timed slot's arrivals: keep the longest duration
            # as ranks come (a class passes one for all its members).
            if slot.duration is None or value > slot.duration:
                slot.duration = value
        else:
            slot.arrivals[rank] = value
            if members:
                slot.arrivals.update(dict.fromkeys(members, value))
        if extra:  # not on the timed hot path
            for key, val in extra.items():
                slot.extra.setdefault(key, {})[rank] = val
        release = slot.shared
        if release is None:
            release = slot.release[rank] = Event(
                self.sim, name=f"coll:{op_name}[{idx}]r{rank}"
            )
        if slot.count == self.nprocs:
            self._complete(idx, slot)
        return release

    def enter(self, rank: int, op_name: str, value: Any = None, **extra):
        """Generator: :meth:`arrive`, wait for release, return this rank's result."""
        results = yield self.arrive(rank, op_name, value, **extra)
        return results[rank] if op_name == _PER_RANK else results

    # individual operations -------------------------------------------------
    def barrier(self, rank: int):
        return self.enter(rank, "barrier")

    def allreduce(self, rank: int, value: Any, op: Op = op_sum, nbytes: int = 8):
        return self.enter(rank, "allreduce", value, reduce_op=op, nbytes=nbytes)

    def alltoall(self, rank: int, values: list[Any], per_pair_bytes: int = 16):
        if len(values) != self.nprocs:
            raise SimError(f"alltoall needs {self.nprocs} values, got {len(values)}")
        return self.enter(rank, "alltoall", values, nbytes=per_pair_bytes)

    def bcast(self, rank: int, value: Any, root: int = 0, nbytes: int = 8):
        return self.enter(rank, "bcast", (value if rank == root else None), root=root, nbytes=nbytes)

    def timed(self, rank: int, duration: float, label: str = "timed") -> Event:
        """A pre-costed synchronisation: all ranks arrive, all are released
        ``max(duration)`` after the last arrival.  Used when the exchange
        cost has been computed centrally (vectorised over rounds).  There is
        no result to pick, so this returns the release event itself for the
        rank body to ``yield`` — no generator frame per rank per round."""
        return self.arrive(rank, f"timed:{label}", duration)

    # completion -------------------------------------------------------------
    def _complete(self, idx: int, slot: _Slot) -> None:
        op = slot.op_name
        costs = self.costs
        if op == "barrier":
            duration = costs.small_collective(self.nprocs)
            results = None
        elif op == "allreduce":
            reduce_op: Op = next(iter(slot.extra["reduce_op"].values()))
            nbytes = next(iter(slot.extra["nbytes"].values()))
            acc = None
            for r in range(self.nprocs):
                v = slot.arrivals[r]
                acc = v if acc is None else reduce_op(acc, v)
            duration = costs.small_collective(self.nprocs, nbytes)
            results = acc
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
            duration = costs.latency_bound(self.nprocs) + nbytes * costs.beta_inv
            results = slot.arrivals[root]
        elif slot.timed:
            duration = float(slot.duration)
            results = None  # no caller reads a timed slot's result
        else:  # pragma: no cover - guarded by enter()
            raise SimError(f"unknown collective {op!r}")
        if slot.shared is not None:
            slot.shared.succeed(results, delay=duration)
        else:
            for ev in slot.release.values():
                ev.succeed(results, delay=duration)
        del self._slots[idx]
