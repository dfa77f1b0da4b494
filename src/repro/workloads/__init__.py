"""Benchmark workload generators: coll_perf, Flash-IO, IOR.

A workload is a recipe of per-file I/O steps; each collective step owns the
:class:`~repro.access.AccessTable` of all its ranks and maps a rank to the
:class:`~repro.access.RankAccess` view it passes to ``MPI_File_write_all``
(other steps are small independent metadata writes).  These reproduce the
exact file access patterns of the three benchmarks the paper evaluates
(Section IV).
"""

from repro.workloads.base import IOStep, Workload
from repro.workloads.collperf import collperf_workload
from repro.workloads.flashio import flashio_workload
from repro.workloads.ior import ior_workload
from repro.workloads.sizing import small_hints, small_workload

__all__ = [
    "IOStep",
    "Workload",
    "collperf_workload",
    "flashio_workload",
    "ior_workload",
    "small_hints",
    "small_workload",
]
