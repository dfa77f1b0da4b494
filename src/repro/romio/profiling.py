"""MPE-style phase profiling.

The paper extracts the collective-write cost breakdown (Figs. 5, 6, 8, 10)
from ROMIO with MPE; here every rank owns a :class:`Profiler` that
accumulates wall-clock per named phase.  Phase names match the paper's
figure legends:

``shuffle_all2all`` — the dissemination ``MPI_Alltoall`` at the top of each
round's exchange; ``comm`` — ``MPI_Waitall`` over the data sends/receives;
``memcpy`` — assembling received pieces into the collective buffer;
``write`` — ``ADIO_WriteContig``; ``post_write`` — the error-code
``MPI_Allreduce`` after the last round; ``not_hidden_sync`` — cache
synchronisation time not hidden behind compute, charged at close;
``open``/``close``/``other`` — the rest.

Paper correspondence: §IV-B measurement methodology — the per-phase
timers behind Figs. 5/6/8/10.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import methodcaller

PHASES = (
    "open",
    "offset_exch",
    "shuffle_all2all",
    "comm",
    "memcpy",
    "write",
    "post_write",
    "not_hidden_sync",
    "close",
    "other",
)


@dataclass
class PhaseProfile:
    """Accumulated seconds per phase for one rank (or an aggregate)."""

    seconds: dict[str, float] = field(default_factory=dict)

    def add(self, phase: str, dt: float) -> None:
        if dt < 0:
            raise ValueError(f"negative duration {dt} for {phase}")
        self.seconds[phase] = self.seconds.get(phase, 0.0) + dt

    def get(self, phase: str) -> float:
        return self.seconds.get(phase, 0.0)

    @property
    def total(self) -> float:
        return sum(self.seconds.values())


class Profiler:
    """Per-rank phase timer on the simulation clock: ``t0 = prof.mark()``,
    then ``prof.lap("write", t0)``.  A phase appears with its first lap and
    not before, so profiles compare equal with ``==``, keys included."""

    def __init__(self, sim, rank: int):
        self.sim = sim
        self.rank = rank
        self.profile = PhaseProfile()

    def mark(self) -> float:
        return self.sim.now

    def lap(self, phase: str, t0: float) -> float:
        dt = self.sim.now - t0
        if dt < 0:  # PhaseProfile.add, inlined
            raise ValueError(f"negative duration {dt} for {phase}")
        seconds = self.profile.seconds
        seconds[phase] = seconds[phase] + dt if phase in seconds else dt
        return dt


def aggregate_max(profiles: list[PhaseProfile]) -> PhaseProfile:
    """Per-phase maximum across ranks — the straggler view the paper plots."""
    tables = [p.seconds for p in profiles]
    out = PhaseProfile()
    for phase in PHASES:
        worst = max(map(methodcaller("get", phase, 0.0), tables), default=0.0)
        if worst > 0:
            out.add(phase, worst)
    return out


def aggregate_mean(profiles: list[PhaseProfile]) -> PhaseProfile:
    out = PhaseProfile()
    if not profiles:
        return out
    tables = [p.seconds for p in profiles]
    for phase in PHASES:
        mean = sum(map(methodcaller("get", phase, 0.0), tables)) / len(tables)
        if mean > 0:
            out.add(phase, mean)
    return out
