"""coll_perf: the MPICH collective-I/O benchmark.

A tridimensional array is block-distributed over a 3-D process grid; every
process writes its block to a shared file holding the array flattened in
row-major order.  A block is contiguous only along the innermost (z) axis,
so each rank's file view is a large set of small strided extents — the
classic "small I/O problem" pattern of Section I.

The paper's configuration: 512 processes (8×8×8 grid), 64 MB block per
process, 32 GB file.  With 8-byte elements that is a 128×256×256-element
block of a 1024×2048×2048 global array; each rank contributes 128×256 =
32768 extents of 2 KB — described, as the MPI subarray type describes them,
by a base and two ``(count, stride)`` levels, never listed.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.access import AccessTable
from repro.workloads.base import IOStep, Workload, shared_dataless


def _grid_dims(nprocs: int) -> tuple[int, int, int]:
    """Near-cubic 3-D factorisation of the process count (MPI_Dims_create)."""
    dims = [1, 1, 1]
    n = nprocs
    fac = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            fac.append(d)
            n //= d
        d += 1
    if n > 1:
        fac.append(n)
    for f in sorted(fac, reverse=True):
        dims[dims.index(min(dims))] *= f
    return tuple(sorted(dims, reverse=True))  # type: ignore[return-value]


def collperf_workload(
    nprocs: int,
    block_bytes: int = 64 * 1024 * 1024,
    elem_size: int = 8,
    with_data: bool = False,
    seed: int = 0,
) -> Workload:
    """Build the coll_perf pattern for ``nprocs`` ranks.

    ``block_bytes`` is the per-process block (64 MB in the paper).  The
    block shape keeps the innermost run at 256 elements when possible so the
    extent granularity matches the paper's configuration; smaller test
    blocks degrade gracefully to near-cubic shapes.

    ``with_data`` attaches deterministic payload bytes for verification runs
    (only sensible at test scale).
    """
    if block_bytes % elem_size:
        raise ValueError(f"block_bytes {block_bytes} not a multiple of elem_size")
    if with_data:
        return _build(nprocs, block_bytes, elem_size, seed)
    return shared_dataless(
        ("coll_perf", nprocs, block_bytes, elem_size),
        nprocs,
        lambda: _build(nprocs, block_bytes, elem_size, None),
    )


def _block_shape(elems: int) -> tuple[int, int, int]:
    """A rank's block: bz <= 256 (the contiguous run), then near-square x/y."""
    bz = min(256, elems)
    while elems % bz:
        bz //= 2
    rest = elems // bz
    by = int(np.sqrt(rest))
    while rest % by:
        by -= 1
    return rest // by, by, bz


def _build(
    nprocs: int, block_bytes: int, elem_size: int, seed: Optional[int]
) -> Workload:
    """``seed`` is ``None`` for a dataless recipe."""
    px, py, pz = _grid_dims(nprocs)
    bx, by, bz = _block_shape(block_bytes // elem_size)
    NX, NY, NZ = bx * px, by * py, bz * pz

    def table_fn() -> AccessTable:
        # Process coordinates in the grid (row-major rank ordering); a
        # rank's view is bx planes of by runs of bz elements.
        ranks = np.arange(nprocs, dtype=np.int64)
        x0 = (ranks // (py * pz)) * bx
        y0 = ((ranks // pz) % py) * by
        z0 = (ranks % pz) * bz
        return AccessTable.strided(
            ((x0 * NY + y0) * NZ + z0) * elem_size,
            ((bx, NY * NZ * elem_size), (by, NZ * elem_size)),
            bz * elem_size,
        )

    def payload_fn(rank: int) -> np.ndarray:
        rng = np.random.default_rng(seed * 100003 + rank)
        return rng.integers(0, 256, size=block_bytes, dtype=np.uint8)

    return Workload(
        name="coll_perf",
        nprocs=nprocs,
        steps=(
            IOStep.collective(
                table_fn, payload_fn if seed is not None else None, label="3d-array"
            ),
        ),
        bytes_per_rank=block_bytes,
        file_size=block_bytes * nprocs,
        detail={
            "grid": (px, py, pz),
            "block": (bx, by, bz),
            "array": (NX, NY, NZ),
            "elem_size": elem_size,
        },
    )
