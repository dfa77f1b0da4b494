"""Flash-IO: the I/O kernel of the FLASH adaptive-mesh hydrodynamics code.

The checkpoint file (HDF5 in the original) stores each of the 24 unknowns
as a separate dataset of shape ``[total_blocks, nzb, nyb, nxb]`` written
with one collective call per variable; process *p* owns blocks
``[p*blocks_per_proc, (p+1)*blocks_per_proc)``, so each rank's piece of a
dataset is one contiguous extent in rank order (a structured table of bases
with no stride level).  The paper's configuration: 16 zones per direction,
80 blocks/process, 24 double-precision unknowns — 768 KiB per process per
block and a checkpoint slightly over 30 GB, plus a small HDF5
header/attribute region written by rank 0 per dataset.

The two plot files (with and without corner data) store a subset of
variables in single precision; the checkpoint dominates the I/O time, as in
the paper.

Paper correspondence: §IV-C — Flash-IO checkpoint writes (Figs. 7/8).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.access import AccessTable
from repro.workloads.base import IOStep, Workload, shared_dataless

HEADER_BYTES = 16 * 1024  # HDF5 superblock + tree metadata per dataset


def flashio_workload(
    nprocs: int,
    blocks_per_proc: int = 80,
    zones_per_dim: int = 16,
    num_unknowns: int = 24,
    elem_size: int = 8,
    with_data: bool = False,
    seed: int = 0,
    kind: str = "checkpoint",
) -> Workload:
    """Build one Flash-IO file recipe.

    ``kind`` selects the file: ``checkpoint`` (24 vars, double precision),
    ``plot`` (4 vars, single precision) or ``plot_corners`` (4 vars, single
    precision, zones+1 per direction).
    """
    if kind == "checkpoint":
        nvars, esize, zpd = num_unknowns, elem_size, zones_per_dim
    elif kind == "plot":
        nvars, esize, zpd = 4, 4, zones_per_dim
    elif kind == "plot_corners":
        nvars, esize, zpd = 4, 4, zones_per_dim + 1
    else:
        raise ValueError(f"unknown Flash-IO file kind {kind!r}")
    shape = (nprocs, blocks_per_proc, kind, nvars, esize, zpd)
    if with_data:
        return _build(*shape, seed)
    # one base per rank per variable
    return shared_dataless(
        ("flash_io", *shape), nprocs * nvars, lambda: _build(*shape, None)
    )


def _build(
    nprocs: int,
    blocks_per_proc: int,
    kind: str,
    nvars: int,
    esize: int,
    zpd: int,
    seed: Optional[int],
) -> Workload:
    """``seed`` is ``None`` for a dataless recipe."""
    zones = zpd**3
    per_proc_per_var = blocks_per_proc * zones * esize
    dataset_bytes = per_proc_per_var * nprocs
    ranks = np.arange(nprocs, dtype=np.int64)

    def make_step(base_offset: int, var_index: int) -> IOStep:
        def table_fn() -> AccessTable:
            return AccessTable.strided(
                base_offset + ranks * per_proc_per_var, (), per_proc_per_var
            )

        def payload_fn(rank: int) -> np.ndarray:
            rng = np.random.default_rng((seed * 31 + var_index) * 100003 + rank)
            return rng.integers(0, 256, size=per_proc_per_var, dtype=np.uint8)

        return IOStep.collective(
            table_fn,
            payload_fn if seed is not None else None,
            label=f"unk{var_index:02d}",
        )

    steps: list[IOStep] = []
    file_pos = 0
    for var in range(nvars):
        # HDF5 header / b-tree metadata: a small rank-0 write per dataset.
        steps.append(IOStep.rank0(file_pos, HEADER_BYTES, label=f"hdr{var}"))
        file_pos += HEADER_BYTES
        steps.append(make_step(file_pos, var))
        file_pos += dataset_bytes
    return Workload(
        name=f"flash_io_{kind}",
        nprocs=nprocs,
        steps=tuple(steps),
        bytes_per_rank=per_proc_per_var * nvars,
        file_size=file_pos,
        detail={
            "kind": kind,
            "vars": nvars,
            "zones_per_dim": zpd,
            "blocks_per_proc": blocks_per_proc,
            "elem_size": esize,
        },
    )
