"""Simulated MPI: collectives, requests, SPMD harness.

The API mirrors the subset of MPI that ROMIO's collective write path uses
once its shuffle is a cost model: ``MPI_Allreduce``, ``MPI_Alltoall``,
``MPI_Bcast``, ``MPI_Barrier``, pre-costed ``timed`` synchronisations
(the two-phase rounds) and generalized requests
(``MPI_Grequest_start``/``MPI_Grequest_complete``) for the cache sync
thread.  There is no point-to-point: no rank sends a message.  The
blocking collectives are generators: ``result = yield from
comm.allreduce(...)``.

Paper correspondence: the MPI substrate under the §II-A algorithm —
synchronisation and shuffle costs come from here.
"""

from repro.mpi.comm import Communicator
from repro.mpi.process import MPIContext, MPIWorld
from repro.mpi.request import GeneralizedRequest

__all__ = [
    "Communicator",
    "GeneralizedRequest",
    "MPIContext",
    "MPIWorld",
]
