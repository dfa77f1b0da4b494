"""Test-scale workload sizing shared by the fleet and fault harnesses.

Both run tiny-but-real configurations (tens of KiB per rank) of the three
benchmarks, shrunk by one ``scale`` factor.  The paper-scale rule
(64 MB blocks, 80 Flash-IO blocks, 8 MB IOR transfers) is a different
function of scale and lives in :func:`repro.experiments.runner.build_workload`.

Paper correspondence: none (harness sizing); the patterns themselves are
§IV's.
"""

from __future__ import annotations

from repro.units import KiB
from repro.workloads.base import Workload
from repro.workloads.collperf import collperf_workload
from repro.workloads.flashio import flashio_workload
from repro.workloads.ior import ior_workload


def small_workload(benchmark: str, nprocs: int, scale: float) -> Workload:
    """``benchmark`` at test scale: 128 KiB coll_perf blocks, 2 Flash-IO
    blocks per process, 2 IOR segments of 64 KiB — each times ``scale``."""
    s = max(scale, 0.0)
    if benchmark == "coll_perf":
        block = max(8 * KiB, (int(128 * KiB * s) // (2 * KiB)) * 2 * KiB)
        return collperf_workload(nprocs, block_bytes=block)
    if benchmark == "flash_io":
        blocks = max(1, int(round(2 * s)))
        return flashio_workload(nprocs, blocks_per_proc=blocks)
    if benchmark == "ior":
        segments = max(1, int(round(2 * s)))
        return ior_workload(nprocs, block_bytes=64 * KiB, segments=segments)
    raise ValueError(f"unknown benchmark {benchmark!r}")
