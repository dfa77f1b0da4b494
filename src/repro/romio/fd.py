"""The ADIO file descriptor shared by all ranks of a collective open.

Mirrors ROMIO's ``ADIO_File``: the global file handle, the parsed hints,
the aggregator list, the driver, and — new in the paper's implementation —
the per-aggregator ``cache_fd`` (here a :class:`~repro.cache.CacheState`).
The profilers live here too — one per class of ranks (a rank on its own
is a class of one), filed under every member's rank — so the experiment
harness can pull the phase breakdown after the run.

``CollectiveCallState`` carries the per-``write_all`` shared scratch space
(every rank's access pattern and the one :class:`~repro.access.AccessTable`
gathered from them, the file domains, the precomputed per-round costs).
Ranks proceed through collective calls in lock-step — no rank starts call
*n + 1* before every rank has arrived at call *n*'s offset exchange — so
the state a rank joins is the newest one until all ranks have.

Paper correspondence: §II/§III — the shared descriptor carrying hints,
file views, and per-file cache state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.access import AccessTable, RankAccess
from repro.cache.cachefile import CacheState
from repro.mpi.comm import Communicator
from repro.romio.aggregation import FileDomain
from repro.romio.hints import Hints
from repro.romio.profiling import Profiler
from repro.sim.core import Event


@dataclass
class CollectiveCallState:
    """Shared scratch for one collective write call (all ranks).

    Everything here is derived once per call and read by every rank: the
    constants the first rank to arrive fills in, the offsets, domains and
    per-round model costs the first rank through the offset exchange
    derives, and the list of ranks that wait out the whole call on one
    event (see ``ext2ph``, "park once").
    """

    index: int
    accesses: dict[int, RankAccess] = field(default_factory=dict)
    # per-call constants, set by the first rank to arrive (ext2ph._open_call)
    opened: bool = False
    offset_cost: float = 0.0  # the step-1 offset exchange
    alltoall_cost: float = 0.0  # each round's dissemination alltoall
    a2a_label: str = ""
    x_label: str = ""
    bulk: bool = False  # production stack: fused assembly delays
    ladders: bool = False  # the timed ladder is available
    park: bool = False  # ... and non-aggregators cross the call on one resume
    # park once: the ranks waiting on ``parked`` since they arrived at the
    # offset exchange at ``parked_t0``, with their profiler phase dicts
    parked: Optional[Event] = None
    parked_ranks: list[int] = field(default_factory=list)
    parked_t0: list[float] = field(default_factory=list)
    parked_seconds: list[dict[str, float]] = field(default_factory=list)
    # all ranks' accesses as one table (ext2ph gathers it after step 1)
    table: Optional[AccessTable] = None
    min_st: int = 0
    max_end: int = -1
    interleaved: bool = True
    domains: Optional[list[FileDomain]] = None
    ntimes: int = 0
    # model-fidelity precomputations (filled by ext2ph._prepare_model)
    prepared: bool = False
    shuffle_durations: Optional[np.ndarray] = None  # [round]
    round_durations: list[float] = field(default_factory=list)  # ... as floats
    recv_bytes: Optional[np.ndarray] = None  # [agg, round]
    recv_pieces: Optional[np.ndarray] = None  # [agg, round] offset/length pairs
    merged_cov: Optional[tuple[np.ndarray, np.ndarray]] = None
    # timed ladder: the aggregators that receive nothing in any round, the
    # member count (they plus every non-aggregator) and the shared
    # (label, duration, phase) step sequence; ``ladder_steps`` stays None
    # when the call takes no ladder
    idle_aggs: frozenset[int] = frozenset()
    ladder_width: int = 0
    ladder_steps: Optional[list[tuple[str, float, str]]] = None


class ADIOFile:
    """Shared collective state for one open file."""

    def __init__(
        self,
        machine,
        comm: Communicator,
        path: str,
        hints: Hints,
        driver,
        pfs_file,
        aggregators: list[int],
        exchange_mode: str = "model",
    ):
        self.machine = machine
        self.comm = comm
        self.path = path
        self.hints = hints
        self.driver = driver
        self.pfs_file = pfs_file
        self.aggregators = aggregators
        self.agg_index = {a: i for i, a in enumerate(aggregators)}
        self.exchange_mode = exchange_mode
        # In rank order; the ranks of a class lap in lock-step, into one.
        self.profilers: dict[int, Profiler] = dict.fromkeys(range(comm.size))
        for rank, members in enumerate(comm.members):
            if self.profilers[rank] is None:
                self.profilers[rank] = prof = Profiler(machine.sim, rank)
                if members:
                    self.profilers.update(dict.fromkeys(members, prof))
        self.opened = 0  # ranks that have joined the collective open, by weight
        self.cache_states: dict[int, Optional[CacheState]] = {}
        self._calls: list[CollectiveCallState] = []
        self.open_error: Optional[str] = None
        # Tri-state crash-recovery snapshot: None until the first rank of the
        # collective open checks the recovery registry; then a bool shared by
        # every rank so the recovery barrier is symmetric.
        self.recovery_needed: Optional[bool] = None

    def is_aggregator(self, rank: int) -> bool:
        return rank in self.agg_index

    def profiler(self, rank: int) -> Profiler:
        return self.profilers[rank]

    def cache_state(self, rank: int) -> Optional[CacheState]:
        return self.cache_states.get(rank)

    def call_state(self) -> CollectiveCallState:
        """The collective call a rank arriving now joins: the newest one,
        until every rank has registered its access with it."""
        calls = self._calls
        if not calls or len(calls[-1].accesses) == self.comm.nprocs:
            calls.append(CollectiveCallState(index=len(calls)))
        return calls[-1]
