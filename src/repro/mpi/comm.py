"""The communicator: the collectives and the rank-to-node map behind one object.

A :class:`Communicator` binds the one collective engine
(:class:`~repro.mpi.collectives.ModelCollectives`) to the rank-to-node
map.  What the engine does differently per stack is a property of the
simulator it is built on (``Simulator.shared_releases``), never an
argument.  The blocking collectives are generators (``yield from``);
``timed`` returns its release Event.  There is no point-to-point: the
§II-A shuffle is costed in closed form (``romio.ext2ph``) and charged
through ``timed`` slots, so no rank sends a message.

Paper correspondence: MPI substrate (§II background); the per-rank
endpoint the §II-A shuffle is charged to.
"""

from __future__ import annotations

from functools import cached_property
from typing import Any

from repro.mpi.collectives import CollectiveCosts, ModelCollectives, Op, op_sum
from repro.sim.core import Simulator


class Communicator:
    """An MPI communicator over ``nprocs`` simulated ranks."""

    def __init__(self, sim: Simulator, rank_to_node: list[int], costs: CollectiveCosts):
        self.sim = sim
        self.rank_to_node = list(rank_to_node)
        self.nprocs = nprocs = len(self.rank_to_node)
        self._model = ModelCollectives(sim, nprocs, costs)
        #: ``ModelCollectives.arrive``, bound: one hop to a rank's next slot
        self.arrive = self._model.arrive
        #: Rank classes: the other ranks each rank's arrivals stand for
        #: (``()`` for a rank on its own; see ModelCollectives.set_classes).
        self.members = self._model.members
        #: ... and the rank that arrives for each rank (itself, unless it follows)
        self.leaders = self._model.leaders

    @property
    def size(self) -> int:
        return self.nprocs

    def node_of(self, rank: int) -> int:
        return self.rank_to_node[rank]

    @cached_property
    def placement(self) -> tuple[int, ...]:
        """``rank_to_node`` with the nodes renumbered in order of first
        appearance: what the ranks share, whichever physical nodes they
        were given.  Anything that depends on the map only through
        per-node sums (the two-phase model's hot-spot bytes) is the same
        for two communicators of equal placement."""
        labels: dict[int, int] = {}
        for n in self.rank_to_node:
            if n not in labels:
                labels[n] = len(labels)
        return tuple([labels[n] for n in self.rank_to_node])

    def set_classes(self, classes) -> None:
        """Partition the ranks into classes whose first member arrives at
        every model collective for all (``MPIWorld.spawn`` runs one process
        per class)."""
        self._model.set_classes(classes)

    def alone(self, rank: int, path: str) -> None:
        """Raise unless ``rank`` stands for itself only: ``path`` is per rank."""
        self._model.alone(rank, path)

    # -- collectives ------------------------------------------------------------
    # Each wrapper returns the engine's generator directly (callers drive it
    # with ``yield from``) instead of re-yielding through a one-level
    # trampoline frame — same values, one less generator per call.
    # ``timed`` has no result and returns its release event.
    def barrier(self, rank: int):
        return self._model.barrier(rank)

    def allreduce(self, rank: int, value: Any, op: Op = op_sum, nbytes: int = 8):
        return self._model.allreduce(rank, value, op, nbytes)

    def alltoall(self, rank: int, values: list[Any], per_pair_bytes: int = 16):
        return self._model.alltoall(rank, values, per_pair_bytes)

    def bcast(self, rank: int, value: Any, root: int = 0, nbytes: int = 8):
        return self._model.bcast(rank, value, root, nbytes)

    def timed(self, rank: int, duration: float, label: str = "timed"):
        """Pre-costed synchronisation point: the release Event, to ``yield``
        (see ModelCollectives.timed; arrives directly — this is the round
        loop's hot call)."""
        return self.arrive(rank, f"timed:{label}", duration)

    def hold_classes(self, clock) -> None:
        """A collective write starts running on its own clock between two
        slots (``romio.ext2ph.CallClock``; ``None``: it ended): until it has
        ended, :meth:`set_classes` refuses by its name."""
        self._model.clock = clock

    @property
    def costs(self) -> CollectiveCosts:
        return self._model.costs
