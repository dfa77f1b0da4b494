"""Discrete-event simulation kernel.

A minimal, dependency-free DES engine in the style of SimPy: simulation
processes are Python generators that ``yield`` :class:`~repro.sim.core.Event`
objects and are resumed when those events fire.  Everything in the
reproduction — MPI ranks, I/O servers, cache sync threads — is a process on
one shared :class:`~repro.sim.core.Simulator`.

Paper correspondence: none — simulation substrate standing in for the
real cluster so the §IV evaluation can run anywhere.
"""

from repro.sim.core import (
    AllOf,
    Event,
    Interrupt,
    Process,
    SimError,
    Simulator,
    Timeout,
)
from repro.sim.profile import SimProfiler
from repro.sim.resources import Resource, Store
from repro.sim.rng import RngStreams

__all__ = [
    "AllOf",
    "Event",
    "Interrupt",
    "Process",
    "Resource",
    "RngStreams",
    "SimError",
    "SimProfiler",
    "Simulator",
    "Store",
    "Timeout",
]
