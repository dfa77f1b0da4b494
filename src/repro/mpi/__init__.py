"""Simulated MPI: point-to-point, collectives, requests, SPMD harness.

The API mirrors the subset of MPI that ROMIO's collective write path uses:
``isend``/``irecv``/``waitall``, ``MPI_Allreduce``, ``MPI_Alltoall(v)``,
``MPI_Bcast``, ``MPI_Barrier`` and generalized requests
(``MPI_Grequest_start``/``MPI_Grequest_complete``) for the cache sync
thread.  All calls are generator-based: ``result = yield from comm.recv(...)``.

Paper correspondence: the MPI substrate under the §II-A algorithm —
synchronisation and shuffle costs come from here.
"""

from repro.mpi.comm import Communicator
from repro.mpi.process import MPIContext, MPIWorld
from repro.mpi.request import GeneralizedRequest, Request

ANY_SOURCE = -1
ANY_TAG = -1

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Communicator",
    "GeneralizedRequest",
    "MPIContext",
    "MPIWorld",
    "Request",
]
