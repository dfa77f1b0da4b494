"""MPI-IO file interface: ``MPI_File_open/write_all/sync/close``.

:class:`MPIIOLayer` is the per-communicator entry point (one per
machine+comm); each rank obtains an :class:`MPIFileHandle` from the
collective :meth:`MPIIOLayer.open`.  All file methods are generators to be
driven from rank processes.

MPI-IO consistency semantics (paper Section III-B) are enforced here: data
written through the cache becomes globally visible (persisted in the PFS)
only after flush-immediate synchronisation completes, after ``sync()``
returns, or after ``close()`` returns.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional

import numpy as np

from repro.access import RankAccess
from repro.romio import datasieve, ext2ph
from repro.romio.adio import get_driver
from repro.romio.aggregation import select_aggregators
from repro.romio.fd import ADIOFile
from repro.romio.hints import Hints
from repro.sim.core import SimError


class MPIIOLayer:
    """ROMIO instance bound to a machine and a communicator."""

    def __init__(self, machine, comm, driver: str = "beegfs", exchange_mode: str = "model"):
        self.machine = machine
        self.comm = comm
        self.driver = get_driver(driver)
        # The one exchange is the model (``romio.ext2ph``); the argument is
        # kept for callers that still name it, and any other value refused.
        if exchange_mode != "model":
            raise SimError(f"unknown exchange mode {exchange_mode!r}: the exchange is 'model'")
        self._open_slots: dict[str, list[ADIOFile]] = {}

    def aggregators(self, hints: Hints) -> list[int]:
        """The aggregator ranks of a file opened with ``hints``."""
        cfg = self.machine.config
        return select_aggregators(
            cfg.num_nodes, cfg.procs_per_node, hints.cb_nodes, spread=hints.cb_config_spread
        )

    # -- collective open ----------------------------------------------------------
    def open(self, rank: int, path: str, info: Optional[Mapping[str, Any]] = None):
        """Generator: ``MPI_File_open`` (collective).  Returns a handle."""
        # The open is collective: nobody opens ``path`` again before every
        # rank has joined its newest descriptor.
        slots = self._open_slots.setdefault(path, [])
        if not slots or slots[-1].opened == self.comm.nprocs:
            hints = Hints.from_info(info)
            slots.append(
                ADIOFile(
                    self.machine,
                    self.comm,
                    path,
                    hints,
                    self.driver,
                    pfs_file=None,
                    aggregators=self.aggregators(hints),
                )
            )
        fd = slots[-1]
        fd.opened += 1 + len(self.comm.members[rank])
        prof = fd.profilers[rank]
        t0 = prof.mark()
        if rank == 0:
            client = self.machine.pfs_client(0)
            if self.machine.pfs.exists(path):
                pfs_file = yield from client.open(path)
            else:
                pfs_file = yield from client.create(
                    path,
                    stripe_size=fd.hints.striping_unit,
                    stripe_count=fd.hints.striping_factor,
                )
            fd.pfs_file = pfs_file
        yield from self.comm.bcast(rank, True, root=0, nbytes=64)
        if fd.pfs_file is None:  # pragma: no cover - bcast ordering guard
            raise SimError("collective open: file handle missing after bcast")
        cache_wait = self.driver.open_cache(fd, rank)
        if cache_wait is not None:
            yield from cache_wait
        recovery = self.machine.recovery
        if fd.recovery_needed is None:
            # First rank to arrive snapshots whether orphaned cache extents
            # exist for this path; every rank then reuses the snapshot, so
            # the recovery barrier below stays symmetric even though replay
            # itself empties the registry.
            fd.recovery_needed = recovery.has_orphans(path)
        if fd.recovery_needed:
            if self.comm.members[rank]:
                self.comm.alone(rank, "recovery.replay")
            yield from recovery.replay(fd, rank)
            yield from self.comm.barrier(rank)
        prof.lap("open", t0)
        return MPIFileHandle(self, fd, rank)


class MPIFileHandle:
    """One rank's view of an open MPI file."""

    def __init__(self, layer: MPIIOLayer, fd: ADIOFile, rank: int):
        self.layer = layer
        self.fd = fd
        self.rank = rank
        self.closed = False

    @property
    def prof(self):
        return self.fd.profiler(self.rank)

    def get_info(self) -> dict[str, str]:
        """``MPI_File_get_info``."""
        return self.fd.hints.to_info()

    # -- writes ---------------------------------------------------------------------
    # The write wrappers validate eagerly and return the worker generator
    # itself (callers drive it with ``yield from``) instead of re-yielding
    # through a trampoline frame: every resume of a parked rank steps one
    # less generator — a measurable slice of full-grid wall time.
    def write_all(self, access: RankAccess):
        """``MPI_File_write_all`` over a flattened file view (generator)."""
        if self.closed:
            self._check_open()  # raises
        fd = self.fd
        return ext2ph.write_strided_coll(fd, self.rank, access, fd.profilers[self.rank])

    def write_at(self, offset: int, nbytes: int, data: Optional[np.ndarray] = None):
        """Independent contiguous write, ``MPI_File_write_at`` (generator)."""
        self._check_open(alone="write_at")
        return datasieve.write_contig_independent(
            self.fd, self.rank, offset, nbytes, data, self.prof
        )

    def write_strided(self, access: RankAccess):
        """Independent strided write, data sieving (generator)."""
        self._check_open(alone="write_strided")
        return datasieve.write_strided(self.fd, self.rank, access, self.prof)

    # -- synchronisation ---------------------------------------------------------------
    def sync(self):
        """Generator: ``MPI_File_sync`` (collective) — after it returns, all
        cached data written so far is globally visible."""
        self._check_open()
        prof = self.prof
        t0 = prof.mark()
        flush_wait = self.fd.driver.flush(self.fd, self.rank)
        if flush_wait is not None:
            yield from flush_wait
        yield from self.fd.comm.barrier(self.rank)
        prof.lap("not_hidden_sync" if self.fd.hints.cache_enabled else "other", t0)

    def close(self):
        """Generator: ``MPI_File_close`` (collective).

        With the cache enabled this is where any synchronisation not hidden
        behind the application's compute phase is paid — charged to the
        ``not_hidden_sync`` profile phase.
        """
        self._check_open()
        prof = self.prof
        t_flush = prof.mark()
        close_wait = self.fd.driver.close_rank(self.fd, self.rank)
        if close_wait is not None:
            yield from close_wait
        if self.fd.hints.cache_enabled:
            prof.lap("not_hidden_sync", t_flush)
        t0 = prof.mark()
        if self.rank == 0:
            client = self.layer.machine.pfs_client(0)
            yield from client.close(self.fd.pfs_file)
        yield from self.fd.comm.barrier(self.rank)
        phase = "not_hidden_sync" if self.fd.hints.cache_enabled else "close"
        prof.lap(phase, t0)
        self.closed = True

    def _check_open(self, alone: Optional[str] = None) -> None:
        # ``alone``: an operation of one rank's own, refused to a class
        if self.closed:
            raise SimError(f"rank {self.rank}: operation on closed file {self.fd.path}")
        if alone is not None and self.fd.comm.members[self.rank]:
            self.fd.comm.alone(self.rank, alone)
