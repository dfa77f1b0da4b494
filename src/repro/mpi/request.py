"""MPI generalized requests (MPI-3 §12.2).

A :class:`GeneralizedRequest` wraps a kernel event: created by user-level
code (here: the E10 cache layer, one per written extent) and completed
asynchronously by a service thread calling
:meth:`GeneralizedRequest.complete` — the simulated analogue of
``MPI_Grequest_complete()``.  Waiters get ``test``/``wait`` semantics.
"""

from __future__ import annotations

from typing import Any

from repro.sim.core import Event, Simulator


class GeneralizedRequest:
    """A request completed by external (non-MPI-progress) activity."""

    __slots__ = ("event",)

    def __init__(self, sim: Simulator):
        self.event = Event(sim, name="grequest")

    @property
    def complete_now(self) -> bool:
        """MPI_Test: has the operation already finished?"""
        return self.event.fired

    def wait(self):
        """MPI_Wait — generator: ``result = yield from req.wait()``."""
        if self.event.fired:
            if not self.event.ok:
                raise self.event.value
            return self.event.value
        value = yield self.event
        return value

    def complete(self, value: Any = None) -> None:
        """MPI_Grequest_complete: mark the operation finished (idempotent
        completion is an error, matching MPI semantics)."""
        self.event.succeed(value)

    def fail(self, exc: BaseException) -> None:
        self.event.fail(exc)
