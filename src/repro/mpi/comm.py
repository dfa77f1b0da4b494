"""The communicator: point-to-point plus collectives behind one object.

A :class:`Communicator` binds the transport, the one collective engine
(:class:`~repro.mpi.collectives.ModelCollectives`), and the rank-to-node
map.  What either depends on the stack is a property of the engine or the
fabric it is built on (``Simulator.shared_releases``, ``Fabric.bundles``),
never an argument.  All blocking calls are generators (``yield from``); the
nonblocking ones return :class:`~repro.mpi.request.Request` handles
compatible with :func:`~repro.mpi.request.waitall`.  The real
message-passing algorithms (:class:`~repro.mpi.collectives.AlgorithmicCollectives`)
are an oracle tests drive over the transport, not a mode of this class.

Paper correspondence: MPI substrate (§II background); the per-rank
endpoint the §II-A shuffle runs over.
"""

from __future__ import annotations

from functools import cached_property
from typing import Any, Optional

from repro.mpi import request as req_mod
from repro.mpi.collectives import CollectiveCosts, ModelCollectives, Op, op_sum
from repro.mpi.request import GeneralizedRequest, Request
from repro.net.message import ANY_SOURCE, ANY_TAG, Transport
from repro.sim.core import SimError, Simulator


class Communicator:
    """An MPI communicator over ``nprocs`` simulated ranks."""

    def __init__(self, sim: Simulator, transport: Transport, nprocs: int, costs: CollectiveCosts):
        self.sim = sim
        self.transport = transport
        self.nprocs = nprocs
        self.rank_to_node = transport.rank_to_node
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

    # -- point to point -------------------------------------------------------
    def isend(self, source: int, dest: int, tag: int, payload: Any, nbytes: int) -> Request:
        if not (0 <= dest < self.nprocs):
            raise SimError(f"isend to invalid rank {dest}")
        ev = self.transport.send(source, dest, tag, payload, nbytes)
        return Request(ev, kind="isend", meta={"dest": dest, "tag": tag, "nbytes": nbytes})

    def irecv(self, rank: int, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        ev = self.transport.post_recv(rank, source, tag)
        return Request(ev, kind="irecv", meta={"source": source, "tag": tag})

    def send(self, source: int, dest: int, tag: int, payload: Any, nbytes: int):
        yield self.transport.send(source, dest, tag, payload, nbytes)

    def recv(self, rank: int, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        msg = yield self.transport.post_recv(rank, source, tag)
        return msg

    def waitall(self, requests: list[Request]):
        return req_mod.waitall(self.sim, requests)

    def grequest_start(self, meta: Optional[dict] = None) -> GeneralizedRequest:
        return GeneralizedRequest(self.sim, meta=meta)

    # -- collectives ------------------------------------------------------------
    # Each wrapper returns the engine's generator directly (callers drive it
    # with ``yield from``) instead of re-yielding through a one-level
    # trampoline frame — same values, one less generator per call.
    # ``timed`` has no result and returns its release event.
    def barrier(self, rank: int):
        return self._model.barrier(rank)

    def allreduce(self, rank: int, value: Any, op: Op = op_sum, nbytes: int = 8):
        return self._model.allreduce(rank, value, op, nbytes)

    def allgather(self, rank: int, value: Any, nbytes: int = 8):
        return self._model.allgather(rank, value, nbytes)

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
