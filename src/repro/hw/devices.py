"""Block-device service-time models.

Devices are FIFO servers: requests queue and are served one at a time (a
RAID group and an SSD both present a single logical stream at this
granularity) — through the generator :meth:`StorageDevice._io`, its callback
twins :meth:`~StorageDevice.write_flat` (the NVMM WAL append) and
:meth:`~StorageDevice.read_flat` (the flat read-back), or the write-back chain
:meth:`~StorageDevice.write_back` (both write-back caches).  Subclasses supply
the service time: :class:`SSDDevice` here, the node-local SATA SSD
(constant per-request latency plus streaming time; no seek term, no jitter
worth modelling), the FTL and NVMM tiers in :mod:`repro.hw.flash`, and the
PFS servers' RAID6 targets (:class:`repro.pfs.server.RaidTarget`: seeks,
stream detection, lognormal jitter).

Paper correspondence: §IV-A device characteristics — the SATA SSD
scratch partition and the servers' RAID6 SAS targets.
"""

from __future__ import annotations

from functools import partial
from math import inf
from typing import Optional

from repro.faults.errors import FaultError
from repro.sim.core import Event, SimError, Simulator
from repro.sim.resources import Resource, abandon_grant, abandon_held, abandon_queued


class StorageDevice:
    """Base: FIFO queue + subclass-provided service time."""

    def __init__(self, sim: Simulator, name: str, capacity_bytes: int):
        self.sim = sim
        self.name = name
        self.capacity_bytes = int(capacity_bytes)
        self.queue = Resource(sim, capacity=1, name=f"dev:{name}")
        self.bytes_written = 0
        self.bytes_read = 0
        self.requests_served = 0
        self.busy_time = 0.0
        # Per-job accounting (repro.fleet): while a fleet job owns this
        # node, its label is set here and every request is charged to the
        # tag as well — the device-side analogue of DataServer.rpcs_by_tag.
        # Cumulative totals above are machine-lifetime; successive jobs on
        # the same node read their own tag instead of resetting them.
        # Untagged (single-job) runs never touch the dicts.
        self.job_tag: Optional[str] = None
        self.requests_by_tag: dict[str, int] = {}
        self.bytes_written_by_tag: dict[str, int] = {}
        self.bytes_read_by_tag: dict[str, int] = {}
        # Chrome-trace hook (attached by Machine when tracing is on; the
        # FTL model emits GC records through it).
        self.tracer = None
        # Fault-injection hooks (set by repro.faults.FaultInjector when a
        # schedule targets this device; a healthy run pays one None test).
        self.injector = None
        self.fault_node: Optional[int] = None
        self.read_only = False  # device failed into its end-of-life RO mode
        self.io_errors_injected = 0
        self.injected_stall_time = 0.0  # ssd_gc_pressure windows (injected)

    # accounting -----------------------------------------------------------------
    def _account(self, nbytes: int, is_write: bool) -> None:
        self.requests_served += 1
        if is_write:
            self.bytes_written += nbytes
        else:
            self.bytes_read += nbytes
        if self.job_tag is not None:
            self._account_tag(nbytes, is_write)

    def _account_tag(self, nbytes: int, is_write: bool) -> None:
        tag = self.job_tag
        self.requests_by_tag[tag] = self.requests_by_tag.get(tag, 0) + 1
        ledger = self.bytes_written_by_tag if is_write else self.bytes_read_by_tag
        ledger[tag] = ledger.get(tag, 0) + nbytes

    # generator API --------------------------------------------------------------
    def write(self, offset: int, nbytes: int):
        """Process body: queue for the device, then hold it for the service time."""
        return self._io(offset, nbytes, True)

    def read(self, offset: int, nbytes: int):
        return self._io(offset, nbytes, False)

    def _io(self, offset: int, nbytes: int, is_write: bool):
        if not 0 <= nbytes < inf:  # comparisons only: a NaN fails them too
            raise SimError(f"{self.name}: nbytes must be finite and >= 0, got {nbytes!r}")
        # A free queue may grant synchronously, skipping the grant event
        # (Resource.try_acquire).  All device state (head position, stream
        # table, RNG jitter, the injector's draws) is touched under the slot
        # in grant order either way.
        if not self.queue.try_acquire():
            yield self.queue.request()
        try:
            if self.injector is not None and not is_write:
                # May raise TransientIOError; the finally still releases.
                self.injector.on_device_read(self, offset, nbytes)
            dt = self.service_time(offset, nbytes, is_write)
            if self.injector is not None and is_write:
                # GC-pressure windows stretch writes (never raise): the hook
                # returns extra stall seconds for this request.
                dt += self.injector.on_device_write(self, offset, nbytes, dt)
            self.busy_time += dt
            self._account(nbytes, is_write)
            yield self.sim.timeout(dt)
        finally:
            self.queue.release()

    # flat API -------------------------------------------------------------------
    # Callback twins of :meth:`_io`: every accounting step — grant,
    # service-time draw, stream-table update, the injector's hooks, counters,
    # release — runs in the *same event callback* as the generator's, so the
    # two are schedule-identical.  The slot is taken and given back in place
    # (queued hand-offs and the idle-release error stay ``Resource``'s), and
    # every request refuses a negative, infinite or NaN ``nbytes``.
    def write_flat(self, offset: int, nbytes: int, on_done, done: Event):
        """A write inside a callback chain (the NVMM WAL append) whose event
        is ``done``: ``on_done()`` is invoked where the generator's caller
        would resume.  Abandoning ``done`` leaves the queue at once, or gives
        the slot back at the interrupt kick."""
        if not 0 <= nbytes < inf:
            raise SimError(f"{self.name}: nbytes must be finite and >= 0, got {nbytes!r}")
        queue = self.queue
        if queue.inline_grants and queue._in_use < queue.capacity and not queue._waiters:
            queue._in_use += 1
            self._write_serve(offset, nbytes, on_done, done)
            return
        granted = partial(self._write_serve, offset, nbytes, on_done, done)
        queue.request_call(granted)
        done.abandon = partial(abandon_queued, queue, granted)

    def _write_serve(self, offset: int, nbytes: int, on_done, done: Event) -> None:
        if done._triggered:  # abandoned while queued: the slot went back then
            return
        done.abandon = partial(abandon_held, self.queue)
        dt = self.service_time(offset, nbytes, True)
        if self.injector is not None:
            # GC-pressure windows stretch writes (never raise).
            dt += self.injector.on_device_write(self, offset, nbytes, dt)
        self.busy_time += dt
        self.requests_served += 1  # _account's untagged half, inline
        self.bytes_written += nbytes
        if self.job_tag is not None:
            self._account_tag(nbytes, True)
        self.sim.call_later(dt, partial(self._served, done, on_done))

    def _served(self, done: Event, on_done, *error) -> None:
        # A flat request's completion, unless its chain was abandoned.
        if done._triggered:
            return
        queue = self.queue
        if queue._waiters or not queue._in_use:
            queue.release()
        else:
            queue._in_use -= 1
        on_done(*error)

    def write_back(self, retire, nbytes: int = 0, offset: Optional[int] = None) -> None:
        """A write-back chain, started as ``write_back(retire)``: ``retire(0)``
        returns the first chunk ``(offset, nbytes)``.  Each chunk is one
        scheduled call, handed the ``nbytes`` written: the slot goes back,
        ``retire(nbytes)`` books them, wakes the owner's waiters and returns
        the next chunk (None once nothing is dirty), which takes the slot and
        is served here, or queues for it (granted, ``offset`` is passed)."""
        queue = self.queue
        if offset is None:
            if nbytes:
                if queue._waiters or not queue._in_use:
                    queue.release()
                else:
                    queue._in_use -= 1
            chunk = retire(nbytes)
            if chunk is None:
                return
            offset, nbytes = chunk
            if not (queue.inline_grants and queue._in_use < queue.capacity and not queue._waiters):
                queue.request_call(partial(self.write_back, retire, nbytes, offset))
                return
            queue._in_use += 1
        dt = self.service_time(offset, nbytes, True)
        if self.injector is not None:
            # GC-pressure windows stretch writes (never raise).
            dt += self.injector.on_device_write(self, offset, nbytes, dt)
        self.busy_time += dt
        self.requests_served += 1  # _account's untagged half, inline
        self.bytes_written += nbytes
        if self.job_tag is not None:
            self._account_tag(nbytes, True)
        self.sim.call_later(dt, partial(self.write_back, retire, nbytes))

    def read_flat(self, offset: int, nbytes: int, on_done, done: Event, granted: bool = False):
        """A read inside a callback chain whose event is ``done``:
        ``on_done(error)`` where the generator's caller would resume — None,
        or an injected read error once the slot is released (at once on a
        synchronous grant, where :meth:`_io` raises).  A free slot is taken
        and the read served in place; a busy one is queued for, and the
        grant comes back here (``granted``).  Abandoning ``done`` leaves the
        queue, or releases the slot by a ``call_soon``."""
        queue = self.queue
        if granted:
            if done._triggered:  # abandoned while queued: the slot went back then
                return
        elif not 0 <= nbytes < inf:
            raise SimError(f"{self.name}: nbytes must be finite and >= 0, got {nbytes!r}")
        elif queue.inline_grants and queue._in_use < queue.capacity and not queue._waiters:
            queue._in_use += 1
        else:
            grant = partial(self.read_flat, offset, nbytes, on_done, done, True)
            queue.request_call(grant)
            done.abandon = partial(abandon_queued, queue, grant)
            return
        if self.injector is not None:
            try:
                self.injector.on_device_read(self, offset, nbytes)
            except FaultError as exc:
                queue.release()
                on_done(exc)
                return
        dt = self.service_time(offset, nbytes, False)
        self.busy_time += dt
        self.requests_served += 1  # _account's untagged half, inline
        self.bytes_read += nbytes
        if self.job_tag is not None:
            self._account_tag(nbytes, False)
        done.abandon = partial(abandon_grant, queue)
        self.sim.call_later(dt, partial(self._served, done, on_done, None))


class SSDDevice(StorageDevice):
    """Node-local SATA SSD: latency + streaming, direction-dependent bandwidth."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        write_bw: float,
        read_bw: float,
        latency: float,
        capacity_bytes: int,
    ):
        super().__init__(sim, name, capacity_bytes)
        self.write_bw = float(write_bw)
        self.read_bw = float(read_bw)
        self.latency = float(latency)

    def service_time(self, offset: int, nbytes: int, is_write: bool) -> float:
        bw = self.write_bw if is_write else self.read_bw
        return self.latency + nbytes / bw
