"""Declarative, hashable fault descriptions.

A :class:`FaultSpec` is a frozen dataclass so it can sit inside experiment
specs and flow through :func:`dataclasses.asdict` into the result-cache key —
two sweep points that differ only in their fault schedule hash to different
cache records, and identical schedules replay byte-identically from cache.

Triggering is either *clock-driven* (``start``/``duration`` in simulated
seconds) or *event-driven* (``on_event`` + ``delay``): the workload driver
emits named progress events (``write_done:<k>`` after the write phase of
file ``k``), which makes crash points robust against calibration changes —
"crash during the flush of the last file" stays meaningful no matter how
long the write phase takes.

Paper correspondence: none (fault-injection extension, see
:mod:`repro.faults`).
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from repro.config import is_finite, is_whole

#: A FaultSpec field's test and what it asks, by the type of its default.
_TYPES = {
    int: (is_whole, "a whole number"),
    float: (is_finite, "a finite number"),
    str: (lambda v: isinstance(v, str), "a string"),
}

#: Recognised fault kinds, and which component each targets:
#:
#: ``ssd_io_error``      transient read errors on node ``target``'s SSD,
#:                       probability ``rate`` per I/O inside the window
#: ``ssd_device_loss``   node ``target``'s SSD goes read-only (EROFS) at the
#:                       trigger; persisted blocks stay readable
#: ``server_stall``      PFS data server ``target`` stops serving for
#:                       ``duration`` seconds (head-of-line blocks a worker)
#: ``link_degrade``      node ``target``'s NIC capacity is scaled by
#:                       ``factor`` for ``duration`` seconds
#: ``aggregator_crash``  every rank process is interrupted (job teardown);
#:                       node-local state — page cache, cache files — survives
#: ``ssd_gc_pressure``   writes on node ``target``'s cache device are
#:                       stretched by ``factor`` for ``duration`` seconds
#:                       (foreground garbage collection competing for the
#:                       dies; never raises — the window only slows writes)
#: ``nvmm_torn_write``   WAL appends on node ``target``'s NVMM region fail
#:                       mid-record with probability ``rate`` inside the
#:                       window, leaving a torn (bad-CRC) record in the log
#:                       that recovery must skip (cache_kind=nvmm only;
#:                       extent-mode caches never append to the WAL, so the
#:                       window is harmless there)
FAULT_KINDS = (
    "ssd_io_error",
    "ssd_device_loss",
    "server_stall",
    "link_degrade",
    "aggregator_crash",
    "ssd_gc_pressure",
    "nvmm_torn_write",
)


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault. Frozen + hashable: usable in sets and cache keys."""

    kind: str
    target: int = 0  # node id, or data-server index for server_stall
    start: float = 0.0  # trigger time (clock-driven specs)
    duration: float = 0.0  # window length; <= 0 means "until the end of time"
    rate: float = 1.0  # per-I/O error probability (ssd_io_error)
    factor: float = 1.0  # capacity multiplier (link_degrade)
    on_event: str = ""  # workload event name; overrides `start` when set
    delay: float = 0.0  # extra seconds after the event before triggering
    # Job addressing (aggregator_crash in a fleet): exactly which job's
    # ranks + daemons the teardown hits.  ``job_index`` names the nth job to
    # *arrive* (register ranks with the injector), ``job`` names a job by
    # its label ("j3").  Both unset = the legacy machine-wide (untagged)
    # registry, i.e. single-job semantics.
    job_index: int = -1  # nth-arriving job (-1 = untargeted)
    job: str = ""  # job label; overrides job_index when set

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        for f in dataclasses.fields(self)[1:]:  # every field but kind, by its default's type
            test, what = _TYPES[type(f.default)]
            if not test(getattr(self, f.name)):
                raise ValueError(f"fault {f.name}={getattr(self, f.name)!r}: must be {what}")
        if self.target < 0:
            raise ValueError(f"fault target must be >= 0, got {self.target}")
        if (self.job_index >= 0 or self.job) and self.kind != "aggregator_crash":
            raise ValueError(
                f"{self.kind}: job addressing (job_index/job) only applies to "
                f"aggregator_crash — infra faults act on physical targets"
            )
        if self.start < 0 or self.delay < 0:
            raise ValueError("fault start/delay must be >= 0")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {self.rate}")
        if self.kind == "link_degrade" and not 0.0 < self.factor:
            raise ValueError(f"link_degrade factor must be > 0, got {self.factor}")
        if self.kind == "ssd_gc_pressure" and self.factor < 1.0:
            raise ValueError(
                f"ssd_gc_pressure factor must be >= 1 (a slowdown), got {self.factor}"
            )

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "FaultSpec":
        names = [f.name for f in dataclasses.fields(cls)]
        unknown = [str(key) for key in d if key not in names]
        if unknown:
            raise ValueError(f"unknown fault field(s) {unknown}; expected some of {names}")
        if "kind" not in d:
            raise ValueError("fault kind: missing")
        return cls(**dict(d))


@dataclass(frozen=True)
class FaultSchedule:
    """The full fault plan for one simulated job.

    ``sync_rpc_timeout`` arms the PFS client's synchronous-RPC watchdog: a
    ``write_sync`` round that exceeds it raises
    :class:`~repro.faults.errors.PFSTimeoutError` into the caller (the sync
    thread retries with backoff).  ``0`` leaves the watchdog off — the
    pre-fault behaviour of waiting forever.
    """

    faults: tuple[FaultSpec, ...] = ()
    sync_rpc_timeout: float = 0.0

    def __post_init__(self):
        # Tolerate lists from callers / JSON round-trips.
        if not isinstance(self.faults, tuple):
            object.__setattr__(self, "faults", tuple(self.faults))
        if not all(isinstance(f, FaultSpec) for f in self.faults):
            raise ValueError(f"faults={self.faults!r}: must all be FaultSpecs")
        if not (is_finite(self.sync_rpc_timeout) and self.sync_rpc_timeout >= 0):
            raise ValueError(
                f"sync_rpc_timeout={self.sync_rpc_timeout!r}: must be a finite number >= 0"
            )

    def __bool__(self) -> bool:
        return bool(self.faults) or self.sync_rpc_timeout > 0

    def of_kind(self, kind: str) -> tuple[FaultSpec, ...]:
        return tuple(f for f in self.faults if f.kind == kind)

    def validate(
        self,
        num_nodes: int | None = None,
        num_servers: int | None = None,
        num_ranks: int | None = None,
        job: str | None = None,
        num_files: int | None = None,
        num_jobs: int | None = None,
    ) -> "FaultSchedule":
        """Reject schedules that would mis-execute instead of failing fast.

        Checks (each a clear ``ValueError``, raised before any machine is
        built — the injector's own target checks fire mid-construction and
        surface as :class:`~repro.sim.core.SimError` deep in a run):

        * node/server/rank targets within the given cluster bounds,
        * no duplicate ``ssd_device_loss`` on the same node (the second
          would re-fire on an already read-only device),
        * event-driven specs name a non-empty event,
        * ``write_done:<k>`` anchors point at a write phase the workload
          actually performs (``k < num_files`` — beyond it the trigger
          silently never fires),
        * ``job_index`` addressing stays inside the fleet (``< num_jobs``).

        Event anchors that no workload emits (neither a ``write_done:<k>``
        milestone nor ``recovery_replay``) raise a ``UserWarning`` instead
        of an error: custom drivers may emit custom milestones, but an
        unreachable trigger in a generated schedule is almost certainly a
        typo'd event name.

        Bounds are only enforced for dimensions the caller provides.
        ``job`` (a fleet job label) prefixes every message so a failure in
        a multi-job schedule is attributable.  Returns ``self`` so callers
        can chain it.
        """
        seen_loss: set[int] = set()
        prefix = f"job {job}: " if job is not None else ""
        for i, spec in enumerate(self.faults):
            where = f"{prefix}faults[{i}] ({spec.kind})"
            # Normally unreachable (FaultSpec's own ctor rejects these), but
            # kept so a schedule assembled by any other means fails here too.
            if spec.start < 0 or spec.delay < 0 or spec.duration < 0:
                raise ValueError(
                    f"{where}: negative trigger time or duration "
                    f"(start={spec.start}, delay={spec.delay}, "
                    f"duration={spec.duration})"
                )
            if spec.kind in (
                "ssd_io_error",
                "ssd_device_loss",
                "ssd_gc_pressure",
                "nvmm_torn_write",
            ):
                if num_nodes is not None and spec.target >= num_nodes:
                    raise ValueError(
                        f"{where}: targets node {spec.target}, but the "
                        f"cluster has {num_nodes} nodes"
                    )
            elif spec.kind == "link_degrade":
                if num_nodes is not None and spec.target >= num_nodes:
                    raise ValueError(
                        f"{where}: targets node {spec.target}, but the "
                        f"cluster has {num_nodes} nodes"
                    )
            elif spec.kind == "server_stall":
                if num_servers is not None and spec.target >= num_servers:
                    raise ValueError(
                        f"{where}: targets server {spec.target}, but the "
                        f"PFS has {num_servers} data servers"
                    )
            elif spec.kind == "aggregator_crash":
                if num_ranks is not None and spec.target >= num_ranks:
                    raise ValueError(
                        f"{where}: names rank {spec.target}, but the job "
                        f"has {num_ranks} ranks"
                    )
                if num_jobs is not None and spec.job_index >= num_jobs:
                    raise ValueError(
                        f"{where}: addresses job_index {spec.job_index}, but "
                        f"the fleet admits {num_jobs} jobs"
                    )
            if spec.on_event.startswith("write_done:"):
                try:
                    write_idx = int(spec.on_event.rpartition(":")[2])
                except ValueError:
                    raise ValueError(
                        f"{where}: malformed write milestone "
                        f"{spec.on_event!r} (expected write_done:<int>)"
                    ) from None
                if num_files is not None and write_idx >= num_files:
                    raise ValueError(
                        f"{where}: anchored on {spec.on_event!r}, but the "
                        f"workload writes only {num_files} file(s) — the "
                        f"trigger would silently never fire"
                    )
            elif spec.on_event and spec.on_event != "recovery_replay":
                warnings.warn(
                    f"{where}: event {spec.on_event!r} is not a milestone "
                    f"the phased workload driver emits (write_done:<k> or "
                    f"recovery_replay) — the trigger may be unreachable",
                    stacklevel=2,
                )
            if spec.delay > 0 and not spec.on_event:
                raise ValueError(
                    f"{where}: delay={spec.delay} has no on_event to anchor "
                    f"it — use start= for clock-driven triggers"
                )
            if spec.kind == "ssd_device_loss":
                if spec.target in seen_loss:
                    raise ValueError(
                        f"{where}: duplicate device loss on node "
                        f"{spec.target} — the device is already gone"
                    )
                seen_loss.add(spec.target)
        return self

    def to_dict(self) -> dict[str, Any]:
        return {
            "faults": [f.to_dict() for f in self.faults],
            "sync_rpc_timeout": self.sync_rpc_timeout,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "FaultSchedule":
        faults = d.get("faults", ())
        if not isinstance(faults, (list, tuple)) or not all(isinstance(f, Mapping) for f in faults):
            raise ValueError(f"faults={faults!r}: must be a list of fault mappings")
        timeout = d.get("sync_rpc_timeout", 0.0)
        return cls(
            faults=tuple(FaultSpec.from_dict(f) for f in faults),
            sync_rpc_timeout=float(timeout) if is_finite(timeout) else timeout,
        )

    @classmethod
    def of(cls, *faults: FaultSpec, sync_rpc_timeout: float = 0.0) -> "FaultSchedule":
        return cls(faults=tuple(faults), sync_rpc_timeout=sync_rpc_timeout)


def schedule_from_dicts(
    faults: Iterable[Mapping[str, Any]], sync_rpc_timeout: float = 0.0
) -> FaultSchedule:
    """Convenience for CLI/JSON callers."""
    return FaultSchedule(
        faults=tuple(FaultSpec.from_dict(f) for f in faults),
        sync_rpc_timeout=sync_rpc_timeout,
    )
