"""Test-scale workload sizing and hints shared by the fleet and fault harnesses.

Both run tiny-but-real configurations (tens of KiB per rank) of the three
benchmarks, shrunk by one ``scale`` factor, under one hint recipe.  The
paper-scale rules (64 MB blocks, 80 Flash-IO blocks, 8 MB IOR transfers;
4 MiB stripes) are different functions and live in
:func:`repro.experiments.runner.build_workload` and
:func:`~repro.experiments.runner.hints_for`.

Paper correspondence: none (harness sizing); the patterns themselves are
§IV's.
"""

from __future__ import annotations

from typing import Optional

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


def small_hints(
    aggregators: int,
    cb_buffer: int,
    sync_chunk: int,
    cache_mode: str,
    flush_flag: str,
    cache_kind: Optional[str] = None,
) -> dict[str, str]:
    """Table I/II hint strings at test scale: 256 KiB stripes over 4
    servers, the sync chunk as the independent-write buffer; a caching mode
    (``enabled`` or ``coherent``) turns the E10 cache on, discarded on close.
    ``cache_kind`` None leaves the backend to ``REPRO_CACHE_KIND``."""
    hints = {
        "cb_nodes": str(aggregators),
        "cb_buffer_size": str(cb_buffer),
        "romio_cb_write": "enable",
        "striping_unit": str(256 * KiB),
        "striping_factor": "4",
        "ind_wr_buffer_size": str(sync_chunk),
    }
    if cache_mode in ("enabled", "coherent"):
        hints.update(
            e10_cache="enable" if cache_mode == "enabled" else "coherent",
            e10_cache_flush_flag=flush_flag,
            e10_cache_discard_flag="enable",
        )
        if cache_kind is not None:
            hints["e10_cache_kind"] = cache_kind
    return hints
