"""The fault injector: wires a :class:`FaultSchedule` into a live machine.

Determinism contract: every probabilistic decision draws from a *named*
:class:`~repro.sim.rng.RngStreams` stream (``faults.ssd.n<node>``), and all
triggering happens through ordinary simulator events, so a fault schedule
produces byte-identical outcomes for a given seed — in-process, across
processes, and under ``--jobs N`` sweep parallelism.

Injection points (each component holds a plain reference to the injector and
calls a narrow hook, so a machine without faults pays one ``is None`` test):

* :meth:`on_device_read` — raised into SSD reads (the sync thread's
  read-back path) as :class:`~repro.faults.errors.TransientIOError`.
* ``ssd_device_loss`` — flips the node's SSD to ``read_only``; the local FS
  turns subsequent writes/fallocates into
  :class:`~repro.faults.errors.DeviceLostError` (EROFS semantics) while
  reads keep working, which is the realistic SSD end-of-life mode and
  exactly what lets the sync thread drain already-cached extents.
* :meth:`stall_wait` — the stall gate a data server's write RPC passes
  after its worker grant, holding the worker while a stall window is open
  (head-of-line blocking); :meth:`server_gate` is its generator form.
* ``link_degrade`` — scales one fabric endpoint's NIC capacity via
  :meth:`~repro.net.fabric.Fabric.set_node_bw_factor` for the window.
* ``aggregator_crash`` — interrupts one registered *job scope*'s rank
  processes (and its sync-thread daemons) with
  :class:`~repro.faults.errors.JobAborted`: the simulated ``mpirun``
  teardown.  Registration is job-scoped (:meth:`register_ranks` with a
  ``job_tag``): a fleet registers each job under its label and the spec's
  ``job``/``job_index`` addressing routes the crash to exactly that job —
  other jobs on the shared machine are untouched except via contention.
  Node-local state — page cache, cache files, the recovery journals —
  survives, because the paper's recovery argument is precisely that a
  *process* crash does not lose SSD contents.
* :meth:`on_device_write` — ``ssd_gc_pressure``: writes on the node's
  flash are stretched by ``factor`` while the window is open (foreground
  GC competing for the dies); a pure slowdown, never an error.
* :meth:`wal_tear_decision` — ``nvmm_torn_write``: a WAL append on the
  node's NVMM region fails mid-record, leaving a physically-present but
  bad-CRC record that recovery replay must skip (``cache_kind=nvmm``).

Paper correspondence: none (fault-injection extension); targets the
§II-B servers, §III cache devices, and §IV fabric.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.faults.errors import JobAborted, TornWriteError, TransientIOError
from repro.faults.spec import FaultSchedule, FaultSpec
from repro.sim.core import Process, SimError


class _FaultState:
    """Runtime state of one scheduled fault (specs are frozen/shared)."""

    __slots__ = ("spec", "active_at")

    def __init__(self, spec: FaultSpec, active_at: Optional[float] = None):
        self.spec = spec
        self.active_at = active_at  # None until (event-)triggered


class _JobEntry:
    """One job's crash-interrupt scope: its rank processes, its background
    daemons, and the recovery registry whose journal descriptors the
    simulated OS closes when the job dies.  The untagged entry (key ``None``)
    is the legacy machine-wide scope of single-job runs."""

    __slots__ = ("ranks", "daemons", "recovery", "crashed")

    def __init__(self):
        self.ranks: list[Process] = []
        self.daemons: list[Process] = []
        self.recovery = None
        self.crashed: Optional[JobAborted] = None


class FaultInjector:
    """Drives one :class:`FaultSchedule` against one :class:`~repro.machine.Machine`."""

    def __init__(self, machine, schedule: FaultSchedule):
        self.machine = machine
        self.sim = machine.sim
        self.rng = machine.rng
        self.tracer = machine.tracer
        self.schedule = schedule
        self.sync_rpc_timeout = float(schedule.sync_rpc_timeout)
        self.crash_time: Optional[float] = None  # most recent crash teardown
        self.injected = 0  # count of fault effects actually delivered
        # Job-scoped crash registries: tag -> _JobEntry.  Single-job runs
        # register under tag None (the machine-wide legacy scope); a fleet
        # registers each job under its label, so an aggregator_crash tears
        # down exactly one job's ranks and daemons.
        self._jobs: dict[Optional[str], _JobEntry] = {}
        self._arrival_order: dict[str, int] = {}  # tag -> nth-arriving index
        self._ssd_read: dict[int, list[_FaultState]] = {}
        self._gc_pressure: dict[int, list[_FaultState]] = {}
        self._wal_torn: dict[int, list[_FaultState]] = {}
        self._stalls: dict[int, list[_FaultState]] = {}
        self._by_event: dict[str, list[_FaultState]] = {}
        self._wire()

    # -- wiring ----------------------------------------------------------------
    def _wire(self) -> None:
        cfg = self.machine.config
        for spec in self.schedule.faults:
            self._validate_target(spec, cfg)
            state = _FaultState(spec)
            # Attaching the injector arms a component's hooks, nothing more.
            if spec.kind == "ssd_io_error":
                self._ssd_read.setdefault(spec.target, []).append(state)
                node = self.machine.nodes[spec.target]
                # The "cache device" is whichever medium the node's cache
                # reads come from: the scratch SSD (extent mode) or the
                # NVMM log region (cache_kind=nvmm).  Attach to both; the
                # idle one performs no I/O, so its hooks never fire.
                for dev in (node.ssd, node.nvmm):
                    dev.injector = self
                    dev.fault_node = spec.target
            elif spec.kind == "ssd_gc_pressure":
                self._gc_pressure.setdefault(spec.target, []).append(state)
                ssd = self.machine.nodes[spec.target].ssd
                ssd.injector = self
                ssd.fault_node = spec.target
            elif spec.kind == "nvmm_torn_write":
                # The write-ahead log consults the injector directly at
                # append time (see NVMMWriteLog).
                self._wal_torn.setdefault(spec.target, []).append(state)
            elif spec.kind == "server_stall":
                self._stalls.setdefault(spec.target, []).append(state)
                self.machine.pfs.servers[spec.target].injector = self
            if spec.on_event:
                self._by_event.setdefault(spec.on_event, []).append(state)
            elif spec.kind in (
                "ssd_io_error",
                "server_stall",
                "ssd_gc_pressure",
                "nvmm_torn_write",
            ):
                # Window faults need no trigger process: activity inside the
                # window consults the clock.
                state.active_at = spec.start
            else:
                self.sim.process(
                    self._trigger_later(state, spec.start),
                    name=f"fault:{spec.kind}",
                )
        if self.sync_rpc_timeout > 0:
            self.machine.pfs.injector = self

    @staticmethod
    def _validate_target(spec: FaultSpec, cfg) -> None:
        if spec.kind in (
            "ssd_io_error",
            "ssd_device_loss",
            "ssd_gc_pressure",
            "nvmm_torn_write",
        ):
            if spec.target >= cfg.num_nodes:
                raise SimError(
                    f"{spec.kind} targets node {spec.target}, "
                    f"but the cluster has {cfg.num_nodes} nodes"
                )
        elif spec.kind == "server_stall":
            if spec.target >= cfg.pfs.num_data_servers:
                raise SimError(
                    f"server_stall targets server {spec.target}, "
                    f"but the PFS has {cfg.pfs.num_data_servers} data servers"
                )

    # -- registration ----------------------------------------------------------
    def register_ranks(
        self,
        procs: list[Process],
        job_tag: Optional[str] = None,
        recovery=None,
    ) -> None:
        """Adopt a job's rank processes as crash-interrupt targets.

        ``job_tag`` scopes the registration: a fleet registers each job
        under its label so ``aggregator_crash`` routes to exactly that job;
        single-job runs register untagged (``None``), the legacy
        machine-wide scope.  ``recovery`` is the registry whose journal
        descriptors the teardown closes (a fleet job's *private*
        :class:`~repro.faults.recovery.CacheRecoveryRegistry`); when omitted
        it falls back to ``machine.recovery``.

        A new world under the same tag replaces the old, *already-dead* set
        — and re-arms that scope's one-teardown-per-registration guard, so
        a crash spec still pending (e.g. armed on ``recovery_replay``) can
        tear the new incarnation down too.  Cascading crashes and fleet
        restarts are exactly this.  Re-registering while the previous set is
        still alive is an error: the old processes would silently lose crash
        coverage (and with them the daemons wired to their teardown).
        """
        entry = self._jobs.get(job_tag)
        if entry is None:
            entry = _JobEntry()
            self._jobs[job_tag] = entry
        elif any(p.is_alive for p in entry.ranks):
            scope = f"job {job_tag!r}" if job_tag is not None else "the machine"
            raise SimError(
                f"register_ranks: {scope} already has live registered rank "
                f"processes — a second registration would silently drop "
                f"their crash coverage (deregister or let them finish first)"
            )
        if job_tag is not None and job_tag not in self._arrival_order:
            self._arrival_order[job_tag] = len(self._arrival_order)
        entry.ranks = list(procs)
        if recovery is not None:
            entry.recovery = recovery
        entry.crashed = None

    def deregister_job(self, job_tag: Optional[str]) -> None:
        """Drop a job's crash scope on teardown (its arrival index survives,
        so ``job_index`` addressing stays stable for later specs)."""
        self._jobs.pop(job_tag, None)

    def register_daemon(self, proc: Process, job_tag: Optional[str] = None) -> None:
        """Register a background process (sync thread) that must be torn down
        with its job on a crash.  Daemons catch the Interrupt and die quietly."""
        entry = self._jobs.get(job_tag)
        if entry is None:
            entry = _JobEntry()
            self._jobs[job_tag] = entry
        entry.daemons.append(proc)

    # -- event-driven triggering -------------------------------------------------
    def notify(self, event: str, job: Optional[str] = None) -> None:
        """Workload progress notification (e.g. ``write_done:2``).

        ``job`` is the emitting job's label (``None`` outside a fleet).  An
        untargeted fault armed on the event is consumed by the *first*
        notification, whoever emits it (repeats — all ranks emit the same
        milestone — are no-ops); a job-addressed fault is consumed only by
        a notification from its target job, and stays armed across other
        jobs' identical milestones.
        """
        states = self._by_event.get(event)
        if not states:
            return
        remaining: list[_FaultState] = []
        for state in states:
            spec = state.spec
            if (spec.job or spec.job_index >= 0) and not self._job_matches(
                spec, job
            ):
                remaining.append(state)
                continue
            self.sim.process(
                self._trigger_later(state, spec.delay),
                name=f"fault:{spec.kind}",
            )
        if remaining:
            self._by_event[event] = remaining
        else:
            del self._by_event[event]

    def _job_matches(self, spec: FaultSpec, job_tag: Optional[str]) -> bool:
        if job_tag is None:
            return False
        if spec.job:
            return spec.job == job_tag
        return self._arrival_order.get(job_tag) == spec.job_index

    def _trigger_later(self, state: _FaultState, delay: float):
        yield self.sim.timeout(delay)
        self._activate(state)

    def _activate(self, state: _FaultState) -> None:
        spec = state.spec
        state.active_at = self.sim.now
        if spec.kind == "ssd_device_loss":
            self.injected += 1
            node = self.machine.nodes[spec.target]
            # Losing the cache device means losing whichever medium backs
            # the cache: the scratch SSD and the NVMM log region fail
            # read-only together (same EROFS end-of-life semantics).
            node.ssd.read_only = True
            node.nvmm.read_only = True
            self._emit("ssd_device_loss", node=spec.target)
        elif spec.kind == "link_degrade":
            self.injected += 1
            self.machine.fabric.set_node_bw_factor(spec.target, spec.factor)
            self._emit("link_degrade", node=spec.target, factor=spec.factor)
            if spec.duration > 0:
                self.sim.process(self._restore_link(spec), name="fault:link-restore")
        elif spec.kind == "aggregator_crash":
            self._fire_crash(spec)
        # ssd_io_error / server_stall: the window is now open; the per-I/O
        # hooks do the rest.

    def _restore_link(self, spec: FaultSpec):
        yield self.sim.timeout(spec.duration)
        self.machine.fabric.set_node_bw_factor(spec.target, 1.0)
        self._emit("link_restore", node=spec.target)

    # -- crash -------------------------------------------------------------------
    def _fire_crash(self, spec: FaultSpec) -> None:
        tag: Optional[str] = None
        if spec.job:
            tag = spec.job
        elif spec.job_index >= 0:
            tag = next(
                (
                    t
                    for t, index in self._arrival_order.items()
                    if index == spec.job_index
                ),
                None,
            )
            if tag is None:
                return  # the addressed job never arrived: the crash misses
        entry = self._jobs.get(tag)
        if entry is None or entry.crashed is not None:
            return  # no such scope, or one teardown per registration
        entry.crashed = JobAborted(spec)
        self.crash_time = self.sim.now
        self.injected += 1
        self._emit("aggregator_crash", target=spec.target, job=tag)
        # The OS closes a dead process's descriptors; without this the
        # recovery pass could never reclaim a replayed cache file's space.
        # The registry is the *job's* (a fleet job journals privately).
        recovery = entry.recovery if entry.recovery is not None else self.machine.recovery
        for journal in recovery.entries():
            # Every journal still registered at teardown lost its owner:
            # mark it orphaned so the next collective open replays it.
            # (A restart re-registers *live* journals for the same paths
            # before replay runs; those must never be treated as
            # recoverable state.)
            journal.orphaned = True
            if journal.local_file is None:
                continue  # NVMM WAL journal: no descriptor to close
            fs = self.machine.local_fs[journal.node_id]
            while journal.local_file.open_count > 0:
                fs.close(journal.local_file)
        for proc in entry.daemons:
            proc.interrupt(entry.crashed)
        for proc in entry.ranks:
            proc.interrupt(entry.crashed)

    # -- per-I/O hooks --------------------------------------------------------------
    def on_device_read(self, device, offset: int, nbytes: int) -> None:
        """Called from :meth:`StorageDevice._io` before servicing a read."""
        node = device.fault_node
        for state in self._ssd_read.get(node, ()):
            if not self._window_open(state):
                continue
            spec = state.spec
            rng = self.rng.stream(f"faults.ssd.n{node}")
            if spec.rate >= 1.0 or rng.random() < spec.rate:
                device.io_errors_injected += 1
                self.injected += 1
                self._emit("ssd_io_error", node=node, offset=offset, nbytes=nbytes)
                raise TransientIOError(
                    f"injected read error on {device.name} "
                    f"[{offset}, {offset + nbytes})"
                )

    def on_device_write(self, device, offset: int, nbytes: int, dt: float) -> float:
        """Called from :meth:`StorageDevice._io` after a write's service time
        is computed: returns *extra stall seconds* (never raises).  This is
        the ``ssd_gc_pressure`` hook — foreground garbage collection on the
        node's flash competing with host writes for the dies."""
        node = device.fault_node
        states = self._gc_pressure.get(node)
        if not states:
            return 0.0
        if device is not self.machine.nodes[node].ssd:
            return 0.0  # GC pressure is a flash phenomenon; NVMM has no GC
        extra = 0.0
        for state in states:
            if self._window_open(state):
                extra += dt * (state.spec.factor - 1.0)
        if extra > 0.0:
            self.injected += 1
            device.injected_stall_time += extra
            self._emit(
                "ssd_gc_pressure", node=node, offset=offset, nbytes=nbytes, stall=extra
            )
        return extra

    def wal_tear_decision(self, node_id: int, offset: int, nbytes: int) -> bool:
        """Should this WAL append tear (``nvmm_torn_write``)?  The log makes
        the call *before* charging device time so it can model the partial
        write + bad-CRC record, then raises
        :class:`~repro.faults.errors.TornWriteError` itself."""
        for state in self._wal_torn.get(node_id, ()):
            if not self._window_open(state):
                continue
            spec = state.spec
            rng = self.rng.stream(f"faults.nvmm.n{node_id}")
            if spec.rate >= 1.0 or rng.random() < spec.rate:
                self.injected += 1
                self._emit(
                    "nvmm_torn_write", node=node_id, offset=offset, nbytes=nbytes
                )
                return True
        return False

    def torn_write_error(self, node_id: int, offset: int, nbytes: int) -> TornWriteError:
        return TornWriteError(
            f"torn WAL append on node {node_id} [{offset}, {offset + nbytes})"
        )

    def server_gate(self, server_id: int):
        """Generator yielded inside a data server's RPC service path: blocks
        (holding the worker) until every open stall window on this server has
        passed.  An unbounded stall parks the RPC forever."""
        while True:
            wait = self.stall_wait(server_id)
            if wait <= 0:
                return
            if wait == math.inf:
                yield self.sim.event(name=f"stall-forever.s{server_id}")
                return  # pragma: no cover - the event never fires
            yield self.sim.timeout(wait)

    def stall_wait(self, server_id: int) -> float:
        """One pass of the stall gate: how long an RPC arriving at it now
        must wait (0: pass; ``inf``: park for good) — a wait is a delivered
        stall.  The gate re-checks after every finite wait, a window opened
        meanwhile included; the flat serve chain loops on this exactly as
        :meth:`server_gate` does."""
        wait = 0.0
        for state in self._stalls.get(server_id, ()):
            if self._window_open(state):
                duration = state.spec.duration
                end = state.active_at + duration if duration > 0 else math.inf
                wait = max(wait, end - self.sim.now)
        if wait > 0:
            self.injected += 1
            self._emit("server_stall_block", server=server_id, wait=wait)
        return wait

    def _window_open(self, state: _FaultState) -> bool:
        if state.active_at is None:
            return False
        now = self.sim.now
        if now < state.active_at:
            return False
        spec = state.spec
        return spec.duration <= 0 or now < state.active_at + spec.duration

    # -- bookkeeping -----------------------------------------------------------------
    def _emit(self, event: str, **detail) -> None:
        self.tracer.emit(self.sim.now, "faults", event, **detail)
