"""Independent strided writes with data sieving (``ADIOI_GEN_WriteStrided``).

When collective buffering is off (``romio_cb_write=disable``) or the access
is not interleaved across ranks, every rank writes its own extents.  Dense
non-contiguous extents are *sieved*: the rank reads an
``ind_wr_buffer_size`` window, patches its pieces into it, and writes the
whole window back — one large I/O instead of many tiny ones, at the cost of
a read-modify-write and exclusive stripe locks over the window (POSIX
semantics).  Windows whose extents fully cover them (or contain a single
extent) skip the read.  At flow fidelity the writes carry the file's
payload bytes (:mod:`repro.payload`) for the offsets they cover; at model
fidelity they carry none.

Paper correspondence: §III-B — independent writes against cached files,
and the sieving fallback for sparse windows.
"""

from __future__ import annotations

import numpy as np

from repro.access import RankAccess
from repro.payload import payload_bytes
from repro.romio.fd import ADIOFile
from repro.romio.profiling import Profiler


def write_strided(fd: ADIOFile, rank: int, access: RankAccess, prof: Profiler):
    """Generator: one rank's independent strided write; returns bytes written."""
    if access.empty:
        return 0
    sieve = fd.hints.ind_wr_buffer_size
    client = fd.machine.pfs_client(rank)
    key = fd.payload_key if fd.exchange_mode == "flow" else None
    written = 0
    pos = access.start_offset
    end = access.end_offset + 1
    while pos < end:
        hi = min(end, pos + sieve)
        ws = access.slice_window(pos, hi)
        if ws.nbytes == 0:
            pos = hi
            continue
        window = hi - pos
        dense = ws.nbytes == window
        if dense or ws.count == 1:
            # No holes (or one extent): write the covered range(s) directly.
            t0 = prof.mark()
            for off, length in zip(ws.offsets.tolist(), ws.lengths.tolist()):
                data = None if key is None else payload_bytes(key, off, length)
                yield from fd.driver.write_contig(fd, rank, off, length, data)
                written += length
            prof.lap("write", t0)
        else:
            # Sieve: read-modify-write the whole window under a write lock.
            t0 = prof.mark()
            stripes = fd.pfs_file.layout.stripes_covered(pos, window)
            held = []
            try:
                for s in stripes:
                    yield from fd.machine.pfs.locks.acquire(
                        fd.pfs_file.file_id, s, exclusive=True
                    )
                    held.append(s)
                old = yield from client.read(fd.pfs_file, pos, window)
                merged = None
                if key is not None:
                    merged = old if old is not None else np.zeros(window, dtype=np.uint8)
                    for off, length in zip(ws.offsets.tolist(), ws.lengths.tolist()):
                        merged[off - pos : off - pos + length] = payload_bytes(
                            key, off, length
                        )
                yield from client.write(
                    fd.pfs_file, pos, window, data=merged, locking=False
                )
                written += ws.nbytes
                io_stats = getattr(fd.machine, "io_stats", None)
                if io_stats is not None:
                    io_stats["bytes_app"] += ws.nbytes
                    io_stats["bytes_direct"] += ws.nbytes
            finally:
                for s in held:
                    fd.machine.pfs.locks.release(fd.pfs_file.file_id, s, exclusive=True)
            prof.lap("write", t0)
        pos = hi
    return written


def write_contig_independent(fd: ADIOFile, rank: int, offset: int, nbytes: int, data, prof: Profiler):
    """Generator: plain independent contiguous write (``MPI_File_write_at``)."""
    t0 = prof.mark()
    yield from fd.driver.write_contig(fd, rank, offset, nbytes, data)
    prof.lap("write", t0)
    return nbytes


def read_strided(fd: ADIOFile, rank: int, access: RankAccess, prof: Profiler):
    """Generator: independent strided read with data sieving
    (``ADIOI_GEN_ReadStrided``).

    Reads always target the *global* file — the paper does not support reads
    from the cache (Section III-B).  Sparse windows are sieved: one large
    read covers the window and the rank's pieces are gathered from it.
    Returns the assembled flat buffer (``None`` when the file is virtual).

    In ``e10_cache=coherent`` mode the underlying PFS reads take shared
    stripe locks, so extents still in transit from someone's cache block
    until persistent.
    """
    if access.empty:
        return None
    sieve = fd.hints.ind_wr_buffer_size
    client = fd.machine.pfs_client(rank)
    coherent = fd.hints.cache_coherent
    out = np.zeros(access.total_bytes, dtype=np.uint8)
    have_data = False
    pos = access.start_offset
    end = access.end_offset + 1
    t0 = prof.mark()
    while pos < end:
        hi = min(end, pos + sieve)
        ws = access.slice_window(pos, hi)
        if ws.nbytes == 0:
            pos = hi
            continue
        window = hi - pos
        dense = ws.nbytes == window
        if dense or ws.count == 1:
            for off, length, buf in zip(ws.offsets, ws.lengths, ws.buffer_starts):
                got = yield from client.read(
                    fd.pfs_file, int(off), int(length), locking=coherent
                )
                if got is not None:
                    out[int(buf) : int(buf) + int(length)] = got
                    have_data = True
        else:
            got = yield from client.read(fd.pfs_file, pos, window, locking=coherent)
            if got is not None:
                for off, length, buf in zip(ws.offsets, ws.lengths, ws.buffer_starts):
                    o, l, b = int(off), int(length), int(buf)
                    out[b : b + l] = got[o - pos : o - pos + l]
                have_data = True
        pos = hi
    prof.lap("other", t0)
    return out if have_data else None
