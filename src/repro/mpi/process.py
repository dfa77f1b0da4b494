"""SPMD harness: run one generator body per rank on a simulated machine.

``MPIWorld.run(rank_body)`` runs ``rank_body(ctx)`` for every rank, where
:class:`MPIContext` exposes the rank id, the communicator, the owning
compute node and convenience helpers.  The return value is the list of
per-rank results, in rank order.

**Rank classes.**  A kernel process stands for a *class* of ranks, usually
of one.  A program whose ranks mostly follow (448 to 504 of the paper's 512
only arrive at collectives the 8 to 64 aggregators drive) gives its body a
``rank_classes()`` returning a partition of the ranks: ``spawn`` starts one
process per class under its first member (``ctx.rank``; all in ``ctx.ranks``),
the communicator counts the class into every collective that rank arrives
at, and ``run`` hands the class's result back once per member.  Whatever
differs from rank to rank refuses a class by name (``Communicator.alone``).

Paper correspondence: stands in for the paper's 512-process MPI launch
(§IV-A).
"""

from __future__ import annotations

from typing import Any, Callable, Generator

from repro.mpi.comm import Communicator
from repro.mpi.collectives import CollectiveCosts
from repro.sim.core import Simulator

RankBody = Callable[["MPIContext"], Generator]


class MPIContext:
    """What a rank body sees: its identity plus the machine around it
    (``ranks``: the class it runs for; ``rank``: the first, which it passes)."""

    def __init__(self, ranks: tuple[int, ...], comm: Communicator, machine: Any):
        self.ranks = ranks
        self.rank = rank = ranks[0]
        self.comm = comm
        self.machine = machine
        self.sim: Simulator = comm.sim
        self.node_id = comm.node_of(rank)

    @property
    def node(self):
        return self.machine.nodes[self.node_id]

    @property
    def nprocs(self) -> int:
        return self.comm.size

    @property
    def now(self) -> float:
        return self.sim.now

    def compute(self, seconds: float):
        """Emulate a computation phase of fixed duration."""
        yield self.sim.timeout(seconds)


class MPIWorld:
    """Builds the communicator for a machine and runs rank bodies."""

    def __init__(self, machine: Any):
        self.machine = machine
        cfg = machine.config
        # Rank-to-node placement goes through the machine so a fleet
        # JobView can place a job's ranks on its allocated physical nodes.
        rank_to_node = [machine.node_of_rank(r) for r in range(cfg.num_ranks)]
        costs = CollectiveCosts(
            alpha=cfg.network.alpha_collective,
            beta_inv=1.0 / cfg.network.nic_bw,
            per_message=cfg.network.per_message_overhead,
            procs_per_node=cfg.procs_per_node,
            shm_beta_inv=1.0 / cfg.network.shm_bw,
        )
        self.comm = Communicator(machine.sim, rank_to_node, costs)

    def spawn(self, rank_body: RankBody) -> list:
        """Start every rank, one kernel process per class the body declares
        (every rank on its own if none); returns the Process handles."""
        ask = getattr(rank_body, "rank_classes", None)
        self.classes = (ask and ask()) or [(r,) for r in range(self.comm.size)]
        self.comm.set_classes(self.classes)
        procs = [
            self.machine.sim.process(
                rank_body(MPIContext(ranks, self.comm, self.machine)),
                # "rank1+447": rank 1 and the 447 ranks it stands for
                name=f"rank{ranks[0]}" + (f"+{len(ranks) - 1}" if len(ranks) > 1 else ""),
            )
            for ranks in self.classes
        ]
        machine = self.machine
        if machine.faults is not None:
            # Crash faults interrupt exactly these processes.  The scope is
            # the machine's job label (a fleet JobView carries one; a plain
            # Machine registers untagged), and the teardown closes journal
            # descriptors through the *job's* recovery registry.
            machine.faults.register_ranks(
                procs, job_tag=machine.job_label, recovery=machine.recovery
            )
        return procs

    def per_rank(self, results: list) -> list:
        """One entry per rank from one per process of the last ``spawn``."""
        out = [None] * self.comm.size
        for ranks, result in zip(self.classes, results):
            for rank in ranks:
                out[rank] = result
        return out

    def run(self, rank_body: RankBody) -> list[Any]:
        """Spawn all ranks, run the simulation to completion, return results."""
        procs = self.spawn(rank_body)
        done = self.machine.sim.all_of(procs)
        return self.per_rank(self.machine.sim.run(until=done))
