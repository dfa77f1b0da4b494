"""The simulated cluster: one object wiring every substrate together.

A :class:`Machine` owns the event kernel, the RNG streams, the interconnect
fabric (compute nodes + PFS servers as endpoints), the compute nodes (each
with its SSD, page cache and local scratch FS) and the global parallel file
system.  Experiments construct a Machine from a
:class:`~repro.config.ClusterConfig`, then an :class:`~repro.mpi.MPIWorld`
on top, then run rank bodies.

**The stack and its reference.**  ``Machine(config)`` builds the production
stack — what the benchmark measures: the slotted engine
(:class:`~repro.sim.core.Simulator`), the array fabric kernel, fused
device operations, coalesced flows, shared collective releases,
callback-chain sync threads and one process per rank *class*.
``Machine(config, reference=True)`` builds the original stack as a unit —
:class:`~repro.reference.HeapSimulator` (every grant its own event),
:class:`~repro.reference.NaiveFabric` (one flow per stripe run, full
recompute), per-rank collective release, one process per rank, and sync
threads and crash replay that flush through the generators of
:func:`repro.reference.flush` — and must agree with
production on every simulated quantity; only the diagnostic ``events``
count may differ (tier-1 asserts it in
``tests/integration/test_golden_digests.py``).  The reference engine and
fabric share no code with production's, only the Event classes and the
fabric's public surface.  This module is the only one that imports
:mod:`repro.reference`, and the only one that reads ``machine.reference``:
it picks the engine, the fabric and the flush (``flush``), and
the components take what they need from those — a device or server grants
inline, and a model collective releases its ranks through one event (so a
collective write may run on its clock and ranks may run as classes), where
the engine allows it (``inline_grants``, ``shared_releases``); a PFS
client bundles identical stripe transfers where the fabric does
(``bundles``).  A :class:`~repro.faults.spec.FaultSchedule` only arms
the hooks of the components it targets
(:class:`~repro.faults.injector.FaultInjector`).

Paper correspondence: §IV-A — the assembled DEEP-ER SDV testbed as one
object.
"""

from __future__ import annotations

from typing import Optional

from repro import options
from repro import reference as reference_stack
from repro.cache.syncthread import Flush
from repro.config import ClusterConfig
from repro.faults.injector import FaultInjector
from repro.faults.recovery import CacheRecoveryRegistry
from repro.faults.spec import FaultSchedule
from repro.hw.node import ComputeNode
from repro.localfs.ext4 import LocalFileSystem
from repro.net.fabric import Fabric
from repro.pfs.client import PFSClient
from repro.pfs.filesystem import ParallelFileSystem
from repro.sim.core import SimError, Simulator
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
        reference: bool = False,
    ):
        refusal = options.refusal()
        if refusal is not None:
            raise SimError(refusal)
        self.config = config
        #: The original stack as a unit (module docstring), or what the
        #: benchmark measures.
        self.reference = reference
        self.sim = reference_stack.HeapSimulator() if reference else Simulator()
        self.sim.profiler = profiler
        self.rng = RngStreams(config.seed)
        self.tracer = Tracer(enabled=trace)
        endpoints = ParallelFileSystem.fabric_endpoints(config)
        self.fabric = (reference_stack.NaiveFabric if reference else Fabric)(
            self.sim,
            num_nodes=endpoints,
            nic_bw=config.network.nic_bw,
            latency=config.network.latency,
            loopback_bw=config.network.shm_bw,
        )
        #: The flush loop the sync threads and crash replay run over a cached
        #: extent (``cache.syncthread.Flush``'s signature and value).
        self.flush = reference_stack.flush if reference else Flush
        self.nodes = [
            ComputeNode(self.sim, n, config, tracer=self.tracer) for n in range(config.num_nodes)
        ]
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
        self.faults = FaultInjector(self, faults) if faults else None
        #: Background daemons (sync threads) spawned on this machine; an
        #: aborted job interrupts the live ones (``faultsweep.run_job``).
        self.daemons: list = []
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
