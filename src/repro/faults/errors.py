"""Exception taxonomy for injected faults and the robustness machinery.

All injected I/O conditions derive from :class:`FaultError` (an ``OSError``),
so existing fallback paths that catch ``OSError`` — e.g. the ADIO driver's
revert-to-direct-write on cache failure — handle them without modification,
while the sync thread can narrowly catch :class:`FaultError` to drive its
retry/backoff loop.

Paper correspondence: none (fault-injection extension, see
:mod:`repro.faults`).
"""

from __future__ import annotations

from typing import Any, Optional

from repro.sim.core import Interrupt


class FaultError(OSError):
    """Base class for injected I/O faults."""


class TransientIOError(FaultError):
    """A retryable device error (media hiccup, dropped request)."""


class DeviceLostError(FaultError):
    """The cache device failed into read-only mode (EROFS semantics).

    SATA/NVMe SSDs characteristically fail *read-only* at end of life: the
    controller refuses new program/erase cycles but already-written blocks
    remain readable.  Modelling device loss this way lets the sync thread
    keep draining persisted extents while new cache writes revert to the
    direct PFS path.
    """


class PFSTimeoutError(FaultError):
    """A synchronous PFS RPC exceeded the client's timeout (server stall)."""


class TornWriteError(FaultError):
    """An NVMM write-ahead-log append failed mid-record (power glitch):
    the partially-written record is present in the log with a bad CRC and
    was never acknowledged to the writer.  The cache layer retries the
    append; recovery replay skips the torn record (see
    :mod:`repro.cache.nvmlog`)."""


class SyncFailedError(OSError):
    """The sync thread exhausted its retry and re-queue budget for an extent."""


class JobAborted(RuntimeError):
    """Carried as the ``cause`` of the :class:`~repro.sim.core.Interrupt`
    thrown into every rank process when an aggregator crash fault fires —
    the simulated analogue of ``mpirun`` tearing the whole job down."""

    def __init__(self, spec: Any):
        super().__init__(f"job aborted by fault {spec!r}")
        self.spec = spec


def phase_status(exc: BaseException) -> Optional[str]:
    """How ``exc`` ended a job phase: ``"crash"`` (a :class:`JobAborted`
    interrupt), ``"loss"`` (:class:`SyncFailedError`), ``"fault"`` (another
    :class:`FaultError`), or None — a bug, for the caller to re-raise."""
    if isinstance(exc, Interrupt):
        return "crash" if isinstance(exc.cause, JobAborted) else None
    if isinstance(exc, SyncFailedError):
        return "loss"
    if isinstance(exc, FaultError):
        return "fault"
    return None


def abort_job(procs, daemons, cause: BaseException):
    """Generator: tear a job down like ``mpirun`` when a rank dies of
    ``cause``: interrupt its live ranks, wait for each to end, then
    interrupt its live sync-thread ``daemons`` — or the survivors wait on
    the dead rank, and the sync threads on their queues, for ever."""
    for proc in procs:
        if proc.is_alive:
            proc.interrupt(JobAborted(cause))
    for proc in procs:
        try:
            yield proc  # already-fired processes re-kick; failures raise
        except Exception:
            pass
    for daemon in daemons:
        if daemon.is_alive:
            daemon.interrupt(JobAborted(cause))
