"""IOR: segmented shared-file collective writes.

The paper's configuration: each of the 512 ranks writes one 8 MB block per
segment for 8 segments — a 32 GB shared file.  IOR issues one collective
write per segment; within a segment the blocks are laid out in rank order
(one extent a rank: a structured table of bases with no stride level):

    offset(rank, segment) = segment * (nprocs * block) + rank * block

Paper correspondence: §IV-D — the IOR runs of Figs. 9/10 (8 MB
transfers, segmented layout).
"""

from __future__ import annotations

import numpy as np

from repro.access import AccessTable
from repro.workloads.base import IOStep, Workload, shared_dataless


def ior_workload(
    nprocs: int,
    block_bytes: int = 8 * 1024 * 1024,
    segments: int = 8,
) -> Workload:
    """Build the IOR pattern: ``segments`` collective steps of one block each."""
    if block_bytes <= 0 or segments <= 0:
        raise ValueError("block_bytes and segments must be positive")
    return shared_dataless(
        ("ior", nprocs, block_bytes, segments),
        nprocs * segments,
        lambda: _build(nprocs, block_bytes, segments),
    )


def _build(nprocs: int, block_bytes: int, segments: int) -> Workload:
    seg_bytes = nprocs * block_bytes
    ranks = np.arange(nprocs, dtype=np.int64)

    def make_step(segment: int) -> IOStep:
        def table_fn() -> AccessTable:
            return AccessTable.strided(
                segment * seg_bytes + ranks * block_bytes, (), block_bytes
            )

        return IOStep.collective(table_fn, label=f"segment{segment}")

    return Workload(
        name="ior",
        nprocs=nprocs,
        steps=tuple(make_step(s) for s in range(segments)),
        bytes_per_rank=block_bytes * segments,
        file_size=seg_bytes * segments,
        detail={"block_bytes": block_bytes, "segments": segments},
    )
