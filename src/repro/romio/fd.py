"""The ADIO file descriptor shared by all ranks of a collective open.

Mirrors ROMIO's ``ADIO_File``: the global file handle, the parsed hints,
the aggregator list, the driver, and — new in the paper's implementation —
the per-aggregator ``cache_fd`` (here a :class:`~repro.cache.CacheState`).
The profilers live here too — one per class of ranks (a rank on its own
is a class of one), filed under every member's rank — so the experiment
harness can pull the phase breakdown after the run.

``CollectiveCallState`` carries the per-``write_all`` shared scratch space
(the access each process arrived with — a class's representative brings one
view and the weight of its members — and the one
:class:`~repro.access.AccessTable` gathered from them, the file domains, the
precomputed per-round costs, the clock the call runs on if it has one).
Ranks proceed through collective calls in lock-step — no rank starts call
*n + 1* before every rank has arrived at call *n*'s offset exchange — so
the state a rank joins is the newest one until all ranks have.

Paper correspondence: §II/§III — the shared descriptor carrying hints,
file views, and per-file cache state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Optional

import numpy as np

from repro.access import AccessTable, RankAccess
from repro.cache.cachefile import CacheState
from repro.mpi.comm import Communicator
from repro.payload import payload_key
from repro.romio.aggregation import FileDomain
from repro.romio.hints import Hints
from repro.romio.profiling import Profiler


@dataclass
class CollectiveCallState:
    """Shared scratch for one collective write call (all ranks).

    Everything here is derived once per call and read by every rank: the
    constants the first rank to arrive fills in, the offsets, domains and
    per-round model costs derived when the offset exchange releases, and
    the clock that then runs the call (see ``ext2ph.CallClock``).
    """

    index: int
    # by arriving rank: a class's representative stands for ``arrived`` ranks
    accesses: dict[int, RankAccess] = field(default_factory=dict)
    arrived: int = 0
    # per-call constants, set by the first rank to arrive (ext2ph._open_call)
    opened: bool = False
    offset_cost: float = 0.0  # the step-1 offset exchange
    alltoall_cost: float = 0.0  # each round's dissemination alltoall
    a2a_label: str = ""
    x_label: str = ""
    bulk: bool = False  # production stack: fused assembly delays
    park: bool = False  # ... and the call runs on one clock: only writers wake
    clock: Optional[Any] = None  # ext2ph.CallClock, while the call runs on it
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
    written: int = 0  # bytes the aggregators handed to write_contig


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
        # In rank order; the ranks of a class lap in lock-step, into one
        # (``class_profilers``: each once, for whoever wants every distinct one).
        self.profilers: dict[int, Profiler] = dict.fromkeys(range(comm.size))
        self.class_profilers: list[Profiler] = []
        for rank, members in enumerate(comm.members):
            if self.profilers[rank] is None:
                self.profilers[rank] = prof = Profiler(machine.sim, rank)
                self.class_profilers.append(prof)
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

    @cached_property
    def payload_key(self) -> int:
        """The key of this file's payload bytes (:mod:`repro.payload`)."""
        return payload_key(self.machine.config.seed, self.path)

    def is_aggregator(self, rank: int) -> bool:
        return rank in self.agg_index

    def profiler(self, rank: int) -> Profiler:
        return self.profilers[rank]

    def cache_state(self, rank: int) -> Optional[CacheState]:
        return self.cache_states.get(rank)

    def call_state(self) -> CollectiveCallState:
        """The collective call a rank arriving now joins: the newest one,
        until every rank has arrived at it (by weight)."""
        calls = self._calls
        if not calls or calls[-1].arrived == self.comm.nprocs:
            calls.append(CollectiveCallState(index=len(calls)))
        return calls[-1]
