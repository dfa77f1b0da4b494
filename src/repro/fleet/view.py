"""Per-job views over one shared :class:`~repro.machine.Machine`.

A fleet run admits many jobs into a single simulation.  Each job gets a
:class:`JobView`: an object with the full Machine attribute surface that the
ROMIO/cache/MPI layers consume, but scoped to the job where the real system
scopes state per job:

* **rank namespace** — job ranks are 0..n-1; :meth:`JobView.node_of_rank`
  maps them onto the *physical* nodes the scheduler allocated, so the whole
  stack's invariant ("node ids are physical, rank→node goes through
  ``machine.node_of_rank``") places the job correctly;
* **PFS clients** — one client set per job (per-client bandwidth caps and
  channel links are per job-rank, as per-process clients would be);
* **recovery journals** — a private :class:`CacheRecoveryRegistry`, so one
  job's crash-recovery replay never sees another job's journals;
* **counters** — private ``io_stats``/``cache_stats`` ledgers, which is what
  makes per-job byte-conservation auditable in a shared world;
* **tracer** — every record is stamped with the job label (one Chrome-trace
  ``pid`` lane per job, see :meth:`~repro.sim.trace.Tracer.to_chrome_trace`).

Everything else — the event kernel, RNG streams, fabric, PFS servers, the
compute nodes and their SSDs/local filesystems — is the *shared* machine,
because that is exactly where the real system does not isolate jobs and
where interference comes from.

Paper correspondence: none (fleet extension); the shared/isolated split
mirrors the §IV testbed, where jobs share the BeeGFS servers and fabric but
own their files and cache extents.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.faults.recovery import CacheRecoveryRegistry
from repro.pfs.client import PFSClient


class _JobTracer:
    """Tracer facade that stamps every record with the owning job label."""

    __slots__ = ("_tracer", "_job")

    def __init__(self, tracer, job: str):
        self._tracer = tracer
        self._job = job

    def emit(self, time, component, event, **detail) -> None:
        detail.setdefault("job", self._job)
        self._tracer.emit(time, component, event, **detail)


class JobView:
    """One job's window onto a shared machine.

    ``placement`` is the tuple of physical node ids the job runs on; the
    job's config is the machine's config resized to that many nodes, so
    job-local code (aggregator selection, ``num_ranks``, per-node rank
    math) sees a cluster of exactly its own size.
    """

    def __init__(self, machine, job_id: int, placement, label: Optional[str] = None):
        placement = tuple(placement)
        if not placement:
            raise ValueError(f"job {job_id}: empty node placement")
        for node in placement:
            if not 0 <= node < machine.config.num_nodes:
                raise ValueError(
                    f"job {job_id}: placement node {node} outside the "
                    f"{machine.config.num_nodes}-node cluster"
                )
        self.machine = machine
        self.job_id = job_id
        self.placement = placement
        self.job_label = label if label is not None else f"j{job_id}"
        self.config = replace(machine.config, num_nodes=len(placement))
        # Shared substrate — one kernel, one fabric, one PFS, one node set.
        self.sim = machine.sim
        self.rng = machine.rng
        self.fabric = machine.fabric
        self.pfs = machine.pfs
        self.nodes = machine.nodes  # full physical list (indexed by node id)
        self.local_fs = machine.local_fs  # ditto
        self.flush = machine.flush
        self.faults = machine.faults
        # Job-scoped state.
        self.tracer = _JobTracer(machine.tracer, self.job_label)
        # Background daemons (sync threads) spawned on this job's behalf;
        # an aborted job interrupts the survivors so its nodes are clean.
        self.daemons: list = []
        self._clients: dict[int, PFSClient] = {}
        self.recovery = CacheRecoveryRegistry(self)
        self.cache_stats = {
            "retries": 0,
            "requeues": 0,
            "sync_failures": 0,
            "degraded": 0,
        }
        self.io_stats = {
            "bytes_app": 0,
            "bytes_cached": 0,
            "bytes_direct": 0,
            "bytes_flushed": 0,
            "bytes_replayed": 0,
            "bytes_discarded": 0,
            "bytes_lost": 0,
        }

    def node_of_rank(self, rank: int) -> int:
        """Physical node hosting this job's (job-local) ``rank``."""
        return self.placement[rank // self.config.procs_per_node]

    def pfs_client(self, rank: int) -> PFSClient:
        """This job's PFS client for ``rank`` (cached, tagged with the job)."""
        client = self._clients.get(rank)
        if client is None:
            node_id = self.node_of_rank(rank)
            client = PFSClient(
                self.pfs, node_id, name=f"{self.job_label}.client.r{rank}"
            )
            client.tag = self.job_label
            self._clients[rank] = client
        return client

    def local_fs_of_rank(self, rank: int):
        return self.local_fs[self.node_of_rank(rank)]
