"""The parallel file system facade: namespace, servers, locks, verification.

:class:`ParallelFileSystem` owns the data servers, the metadata server and
the lock manager, and keeps a per-file *verification image* (sparse extents
plus a persisted-byte interval set) so tests can assert both content
correctness and the MPI-IO visibility rules ("these bytes are not globally
visible until the sync completed").

Paper correspondence: §II-B — the global file system whose independent
write inefficiency motivates the cache.
"""

from __future__ import annotations

import itertools
from typing import Optional

import numpy as np

from repro.config import ClusterConfig
from repro.intervals import IntervalSet
from repro.pfs.layout import StripeLayout
from repro.pfs.locks import LockManager
from repro.pfs.mds import MetadataServer
from repro.pfs.server import DataServer
from repro.sim.core import SimError, Simulator
from repro.sim.rng import RngStreams


class PFSFile:
    """A file in the global namespace."""

    _ids = itertools.count(1)

    def __init__(self, path: str, layout: StripeLayout):
        self.path = path
        self.file_id = next(PFSFile._ids)
        self.layout = layout
        self.size = 0
        # Verification extents in *write order* — overlapping writes must be
        # overlaid temporally (last writer wins), not by offset.
        self.extents: list[tuple[int, np.ndarray]] = []
        self.persisted = IntervalSet()
        self.open_count = 0

    def record_write(self, offset: int, nbytes: int, data: Optional[np.ndarray]) -> None:
        end = offset + nbytes
        self.size = end if end > self.size else self.size
        self.persisted.add(offset, end)
        if data is not None:
            arr = np.asarray(data, dtype=np.uint8)
            if len(arr) != nbytes:
                raise SimError(f"payload length {len(arr)} != nbytes {nbytes}")
            self.extents.append((offset, arr.copy()))

    def data_image(self) -> np.ndarray:
        img = np.zeros(self.size, dtype=np.uint8)
        for off, arr in self.extents:
            img[off : off + len(arr)] = arr
        return img

    def read_back(self, offset: int, nbytes: int) -> Optional[np.ndarray]:
        if not self.extents:
            return None
        out = np.zeros(nbytes, dtype=np.uint8)
        end = offset + nbytes
        for ext_off, arr in self.extents:
            lo, hi = max(offset, ext_off), min(end, ext_off + len(arr))
            if lo < hi:
                out[lo - offset : hi - offset] = arr[lo - ext_off : hi - ext_off]
        return out


class ParallelFileSystem:
    """BeeGFS-like global file system shared by all nodes."""

    def __init__(
        self,
        sim: Simulator,
        config: ClusterConfig,
        fabric,
        rng: Optional[RngStreams] = None,
    ):
        self.sim = sim
        self.config = config
        self.cfg = config.pfs
        self.fabric = fabric
        self.rng = rng
        # Fabric endpoints: compute nodes occupy [0, num_nodes); data servers
        # and the MDS are appended after them.
        base = config.num_nodes
        self.servers = [
            DataServer(
                sim,
                server_id=i,
                fabric_node=base + i,
                cfg=self.cfg,
                rng=rng,
                num_workers=self.cfg.num_server_workers,
            )
            for i in range(self.cfg.num_data_servers)
        ]
        self.mds = MetadataServer(sim, base + self.cfg.num_data_servers, self.cfg)
        self.locks = LockManager(sim, self.cfg.lock_rpc_time)
        # Set by repro.faults when a schedule arms the sync-RPC watchdog.
        self.injector = None
        self._files: dict[str, PFSFile] = {}
        self._ingest_links = [
            fabric.make_link(f"srv{i}.ingest", self.cfg.server_ingest_bw)
            for i in range(self.cfg.num_data_servers)
        ]

    @staticmethod
    def fabric_endpoints(config: ClusterConfig) -> int:
        """How many fabric endpoints a machine with this config needs."""
        return config.num_nodes + config.pfs.num_data_servers + config.pfs.num_metadata_servers

    def ingest_link(self, server_index: int):
        return self._ingest_links[server_index]

    # -- namespace (timed operations go through the MDS) ------------------------
    def create(
        self,
        path: str,
        stripe_size: Optional[int] = None,
        stripe_count: Optional[int] = None,
    ) -> PFSFile:
        """Immediate create (the MDS op is charged by the client)."""
        if path in self._files:
            raise FileExistsError(path)
        # None means "the default"; StripeLayout refuses a bad value, 0 included.
        size = self.cfg.default_stripe_size if stripe_size is None else stripe_size
        count = self.cfg.default_stripe_count if stripe_count is None else stripe_count
        layout = StripeLayout(stripe_size=size, stripe_count=count)
        if count > self.cfg.num_data_servers:
            raise SimError(
                f"stripe_count {count} exceeds {self.cfg.num_data_servers} data servers"
            )
        f = PFSFile(path, layout)
        self._files[path] = f
        return f

    def lookup(self, path: str) -> PFSFile:
        f = self._files.get(path)
        if f is None:
            raise FileNotFoundError(path)
        return f

    def exists(self, path: str) -> bool:
        return path in self._files

    def unlink(self, path: str) -> None:
        self.lookup(path)
        del self._files[path]

    # -- aggregate statistics ------------------------------------------------------
    @property
    def bytes_persisted(self) -> int:
        return sum(f.persisted.total for f in self._files.values())
