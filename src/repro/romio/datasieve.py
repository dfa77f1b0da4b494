"""Independent strided writes with data sieving (``ADIOI_GEN_WriteStrided``).

When collective buffering is off (``romio_cb_write=disable``) or the access
is not interleaved across ranks, every rank writes its own extents.  Dense
non-contiguous extents are *sieved*: the rank reads an
``ind_wr_buffer_size`` window, patches its pieces into it, and writes the
whole window back — one large I/O instead of many tiny ones, at the cost of
a read-modify-write and exclusive stripe locks over the window (POSIX
semantics).  Windows whose extents fully cover them (or contain a single
extent) skip the read.  A direct write hands ``write_contig`` no data,
as the collective path does; a sieved window bypasses it, so under a
driver that moves payload bytes (``ADIODriver.payload``) the window carries
the file's payload (:mod:`repro.payload`) for the offsets it covers,
merged into what the read brought back.  The production drivers move none.

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
    key = fd.payload_key if fd.driver.payload else None
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
                wrote = fd.driver.write_contig(fd, rank, off, length, None)
                if wrote is not None:
                    yield wrote
                written += length
            prof.lap("write", t0)
        else:
            # Sieve: read-modify-write the whole window under a write lock.
            t0 = prof.mark()
            stripes = fd.pfs_file.layout.stripes_covered(pos, window)
            held = []
            try:
                for s in stripes:
                    yield fd.machine.pfs.locks.acquire(fd.pfs_file.file_id, s, exclusive=True)
                    held.append(s)
                old = yield from client.read(fd.pfs_file, pos, window)
                merged = None
                if key is not None:
                    merged = old if old is not None else np.zeros(window, dtype=np.uint8)
                    for off, length in zip(ws.offsets.tolist(), ws.lengths.tolist()):
                        merged[off - pos : off - pos + length] = payload_bytes(
                            key, off, length
                        )
                yield client.write(fd.pfs_file, pos, window, data=merged, locking=False)
                written += ws.nbytes
                io_stats = fd.machine.io_stats
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
    wrote = fd.driver.write_contig(fd, rank, offset, nbytes, data)
    if wrote is not None:
        yield wrote
    prof.lap("write", t0)
    return nbytes
