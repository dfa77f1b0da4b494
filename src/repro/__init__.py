"""repro — a simulated-cluster reproduction of
"Improving Collective I/O Performance Using Non-Volatile Memory Devices"
(Congiu, Narasimhamurthy, Süß, Brinkmann — IEEE CLUSTER 2016).

The package provides:

* a discrete-event simulated HPC cluster (:class:`repro.machine.Machine`)
  modelled on the DEEP-ER testbed — nodes with local SSDs and page caches,
  an InfiniBand-like fabric, and a BeeGFS-like parallel file system;
* a simulated MPI layer (:class:`repro.mpi.MPIWorld`) with
  arrival-synchronised collectives and generalized requests;
* a faithful port of ROMIO's extended two-phase collective write
  (:class:`repro.romio.MPIIOLayer`; writes only, as in the paper, with the
  shuffle costed in closed form rather than simulated message by message),
  extended with the paper's E10 persistent-cache hints (``e10_cache``,
  ``e10_cache_path``, ``e10_cache_flush_flag``, ``e10_cache_discard_flag``,
  ``ind_wr_buffer_size``);
* the MPIWRAP deferred-close wrapper (:class:`repro.mpiwrap.MPIWrap`);
* the paper's three benchmarks (:mod:`repro.workloads`) and the experiment
  harness regenerating every evaluation figure (:mod:`repro.experiments`).

Quickstart::

    from repro import Machine, MPIWorld, MPIIOLayer, small_testbed
    from repro.access import RankAccess

    machine = Machine(small_testbed())
    world = MPIWorld(machine)
    romio = MPIIOLayer(machine, world.comm)

    def app(ctx):
        fh = yield from romio.open(ctx.rank, "/global/data", {"e10_cache": "enable"})
        yield from fh.write_all(RankAccess.contiguous(ctx.rank * 4096, 4096))
        yield from fh.close()

    world.run(app)

Paper correspondence: the package layers mirror the paper's structure —
ROMIO extensions (§II–III) over a simulated DEEP-ER testbed (§IV); see
ARCHITECTURE.md for the stack tour.
"""

from repro.access import RankAccess
from repro.config import ClusterConfig, deep_er_testbed, small_testbed
from repro.machine import Machine
from repro.mpi.process import MPIContext, MPIWorld
from repro.romio.file import MPIFileHandle, MPIIOLayer
from repro.romio.hints import HintError, Hints

__version__ = "1.0.0"

__all__ = [
    "ClusterConfig",
    "HintError",
    "Hints",
    "MPIContext",
    "MPIFileHandle",
    "MPIIOLayer",
    "MPIWorld",
    "Machine",
    "RankAccess",
    "deep_er_testbed",
    "small_testbed",
    "__version__",
]
