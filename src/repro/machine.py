"""The simulated cluster: one object wiring every substrate together.

A :class:`Machine` owns the event kernel, the RNG streams, the interconnect
fabric (compute nodes + PFS servers as endpoints), the compute nodes (each
with its SSD, page cache and local scratch FS) and the global parallel file
system.  Experiments construct a Machine from a
:class:`~repro.config.ClusterConfig`, then an :class:`~repro.mpi.MPIWorld`
on top, then run rank bodies.

Paper correspondence: §IV-A — the assembled DEEP-ER SDV testbed as one
object.
"""

from __future__ import annotations

from typing import Optional

from repro.config import ClusterConfig
from repro.dataplane import DATAPLANE_KINDS, default_dataplane_kind
from repro.faults.injector import FaultInjector
from repro.faults.recovery import CacheRecoveryRegistry
from repro.faults.spec import FaultSchedule
from repro.hw.node import ComputeNode
from repro.localfs.ext4 import LocalFileSystem
from repro.net.fabric import create_fabric
from repro.pfs.client import PFSClient
from repro.pfs.filesystem import ParallelFileSystem
from repro.sim.core import create_simulator
from repro.sim.profile import SimProfiler
from repro.sim.rng import RngStreams
from repro.sim.trace import Tracer


class Machine:
    def __init__(
        self,
        config: ClusterConfig,
        trace: bool = False,
        faults: Optional[FaultSchedule] = None,
        profiler: Optional[SimProfiler] = None,
        dataplane: Optional[str] = None,
    ):
        self.config = config
        # Engine selection (REPRO_ENGINE): the slotted bucket-and-heap engine
        # by default, the heapq reference for A/B determinism checks — see
        # docs/PERFORMANCE.md ("The slotted scheduler").
        self.sim = create_simulator()
        self.sim.profiler = profiler
        self.rng = RngStreams(config.seed)
        self.tracer = Tracer(enabled=trace)
        endpoints = ParallelFileSystem.fabric_endpoints(config)
        # Allocator selection (REPRO_FABRIC): the flat-array max-min kernel
        # with converged-rate memoization by default (array), the incremental
        # dirty-component allocator and the naive full-recompute reference
        # kept for A/B determinism checks — see docs/PERFORMANCE.md
        # ("Array fair-share kernel").
        self.fabric = create_fabric(
            self.sim,
            num_nodes=endpoints,
            nic_bw=config.network.nic_bw,
            latency=config.network.latency,
            loopback_bw=config.network.shm_bw,
        )
        self.nodes = [ComputeNode(self.sim, n, config) for n in range(config.num_nodes)]
        self.local_fs = [LocalFileSystem(node) for node in self.nodes]
        self.pfs = ParallelFileSystem(self.sim, config, self.fabric, self.rng)
        self._clients: dict[int, PFSClient] = {}
        self.recovery = CacheRecoveryRegistry(self)
        # Machine-wide robustness counters, rolled up by the sync threads and
        # the ADIO degradation path (their owning objects are torn down with
        # each file, so per-thread counters would be lost by run end).
        self.cache_stats = {"retries": 0, "requeues": 0, "sync_failures": 0, "degraded": 0}
        # Byte-conservation ledger for the invariant monitor (repro.chaos):
        # every application byte is counted exactly once on its way through
        # the cache or the direct path, and cached bytes are counted again
        # exactly once when they leave (flush / replay / policy discard /
        # reported loss).  See DESIGN.md §9 for the conservation equations.
        self.io_stats = {
            "bytes_app": 0,  # application payload acknowledged by a write path
            "bytes_cached": 0,  # entered a cache file (write_through_cache)
            "bytes_direct": 0,  # went straight to the global file
            "bytes_flushed": 0,  # cache -> global via the sync thread
            "bytes_replayed": 0,  # cache -> global via crash-recovery replay
            "bytes_discarded": 0,  # cached under flush_never (never persisted)
            "bytes_lost": 0,  # reported lost via SyncFailedError
        }
        # Data-plane selection: explicit argument, else REPRO_DATAPLANE
        # (default bulk).  Fault schedules no longer force chunked
        # machine-wide: the injector scopes the fallback to the components
        # it actually targets (see FaultInjector._wire), so everything else
        # keeps the fused/coalesced fast path even in faulted runs.
        if dataplane is not None and dataplane not in DATAPLANE_KINDS:
            raise ValueError(
                f"unknown dataplane {dataplane!r} (expected one of {DATAPLANE_KINDS})"
            )
        self.dataplane = dataplane if dataplane is not None else default_dataplane_kind()
        bulk = self.dataplane == "bulk"
        for node in self.nodes:
            node.ssd.fast_path = bulk
            node.nvmm.fast_path = bulk
            node.ssd.tracer = self.tracer  # FTL GC records (no-op untraced)
        for server in self.pfs.servers:
            server.fast_path = bulk
            server.target.fast_path = bulk
        self.pfs.dataplane_bulk = bulk
        self.faults = FaultInjector(self, faults) if faults else None
        # Multi-job runs (repro.fleet) wrap this machine in per-job views
        # that override job_label and node_of_rank; single-job code paths
        # see the defaults below and behave exactly as before.
        self.job_label: Optional[str] = None

    def node_of_rank(self, rank: int) -> int:
        """Physical node id hosting a rank.

        All node ids in the stack are physical; any rank-to-node mapping
        must go through this method so a :class:`repro.fleet.JobView` can
        re-point a job's (job-local) ranks at its allocated nodes.
        """
        return rank // self.config.procs_per_node

    def pfs_client(self, rank: int) -> PFSClient:
        """The (lazily created, cached) PFS client for a rank."""
        client = self._clients.get(rank)
        if client is None:
            node_id = self.node_of_rank(rank)
            client = PFSClient(self.pfs, node_id, name=f"client.r{rank}")
            self._clients[rank] = client
        return client

    def local_fs_of_rank(self, rank: int) -> LocalFileSystem:
        return self.local_fs[self.node_of_rank(rank)]

    @property
    def now(self) -> float:
        return self.sim.now
