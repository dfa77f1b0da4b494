"""Workload step/recipe types shared by all three benchmarks.

A collective step owns one :class:`~repro.access.AccessTable` — the file
views of *all* its ranks, written down once as a strided descriptor by the
benchmark's generator and handed out rank by rank as views.  Recipes carry
no bytes (a payload is a function of the file offset, :mod:`repro.payload`)
and are immutable, so equal shapes share one :class:`Workload` (and with it
the built tables and their coverage) across the files of a run, the points
of a sweep and the jobs of a fleet; see :func:`shared_dataless`.

Paper correspondence: §IV — the common shape of the three evaluated
benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from repro.access import AccessTable, RankAccess, merge_extent_arrays

TableFn = Callable[[], AccessTable]


@dataclass(eq=False)
class IOStep:
    """One I/O operation inside a file phase.

    ``collective`` steps provide ``access_fn(rank)``, a view of the step's
    table; ``rank0`` steps are small independent metadata writes
    (headers/attributes) from rank 0 only, as HDF5 produces.
    """

    kind: str  # "collective" | "rank0"
    label: str = ""
    table_fn: Optional[TableFn] = None  # builds the step's table, called once
    offset: int = 0
    nbytes: int = 0
    _table: Optional[AccessTable] = field(default=None, repr=False)

    @staticmethod
    def collective(table_fn: TableFn, label: str = "") -> "IOStep":
        return IOStep(kind="collective", label=label, table_fn=table_fn)

    @staticmethod
    def rank0(offset: int, nbytes: int, label: str = "") -> "IOStep":
        return IOStep(kind="rank0", label=label, offset=offset, nbytes=nbytes)

    def table(self, profiler=None) -> AccessTable:
        """The step's all-ranks table, built on first use (``profiler``
        counts the build as ``access.table_build``)."""
        table = self._table
        if table is None:
            table = self._table = self.table_fn()
            if profiler is not None:
                profiler.count("access.table_build")
        return table

    def access_fn(self, rank: int, profiler=None) -> RankAccess:
        """Rank ``rank``'s access for this step."""
        return self.table(profiler).rank(rank)


@dataclass(frozen=True)
class Workload:
    """A named recipe: the per-file steps plus bookkeeping totals."""

    name: str
    nprocs: int
    steps: tuple[IOStep, ...]
    bytes_per_rank: int
    file_size: int
    detail: dict = field(default_factory=dict)

    def total_bytes(self) -> int:
        return self.file_size

    @cached_property
    def coverage(self) -> tuple[np.ndarray, np.ndarray]:
        """The bytes one file of this recipe holds once written, as merged
        ``(starts, ends)`` runs: every collective step's table coverage and
        every rank-0 write — what an integrity check expects persisted."""
        starts, lengths = [], []
        for step in self.steps:
            if step.kind == "collective":
                s, e = step.table().coverage
                starts.append(s)
                lengths.append(e - s)
            else:
                starts.append(np.array([step.offset]))
                lengths.append(np.array([step.nbytes]))
        return merge_extent_arrays(starts, lengths)


# Recipes never mutate after construction, so one Workload per shape serves
# every caller in the process: tables are built once per shape instead of
# once per experiment or fleet job.  The memo is bounded in entries and in
# the int64s the tables hold (a base per rank and step, as built — one that
# something flattens outgrows its share until the memo is next cleared); a
# recipe too large for the budget is rebuilt per caller.
_DATALESS_MEMO: dict[tuple, tuple[Workload, int]] = {}
_DATALESS_MEMO_MAX = 16
_DATALESS_MEMO_HELD = 1 << 23


def shared_dataless(shape: tuple, held: int, build: Callable[[], Workload]) -> Workload:
    """The one shared :class:`Workload` of ``shape`` (benchmark name plus
    every sizing parameter), built on first request; ``held`` is the
    int64s its tables hold, all steps together."""
    hit = _DATALESS_MEMO.get(shape)
    if hit is not None:
        return hit[0]
    workload = build()
    if held <= _DATALESS_MEMO_HELD:
        total = sum(size for _, size in _DATALESS_MEMO.values())
        if (
            len(_DATALESS_MEMO) >= _DATALESS_MEMO_MAX
            or total + held > _DATALESS_MEMO_HELD
        ):
            _DATALESS_MEMO.clear()
        _DATALESS_MEMO[shape] = (workload, held)
    return workload
