"""Queueing primitives built on the event kernel.

:class:`Resource` is a counted FIFO server (device queues, lock slots);
:class:`Store` is an unbounded FIFO mailbox used for message queues and the
cache sync thread's work queue.

Paper correspondence: none — queueing substrate under the §II-B server
and §IV-A device models.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable

from repro.sim.core import Event, SimError, Simulator, abandon, at_kick, settle


def abandon_wait(stage: Event, done: Event) -> None:
    """``done``'s ``abandon`` hook while its chain waits on ``stage`` (a
    :class:`Resource` request, or an inner chain's completion): settle the
    chain and give ``stage`` up as an interrupted waiter would."""
    settle(done)
    stage.callbacks.clear()
    abandon(stage)


def abandon_queued(resource: Resource, fn: Callable[[], None], done: Event) -> None:
    """:func:`abandon_wait` for a chain queued as ``fn``
    (:meth:`Resource.request_call`)."""
    settle(done)
    resource.withdraw(fn)


def abandon_grant(resource: Resource, done: Event) -> None:
    """``done``'s ``abandon`` hook while its chain holds a grant of
    ``resource``: settle the chain and give the grant back at the interrupt
    kick, where the interrupted generator's ``finally`` would."""
    settle(done)
    resource.sim.call_soon(resource.release)


def abandon_held(resource: Resource, done: Event) -> None:
    """:func:`abandon_grant` for a grant a chain holds in place of a frame
    of the waiting process itself: given back at that process's interrupt
    kick (:func:`~repro.sim.core.at_kick`), where its ``finally`` ran."""
    settle(done)
    at_kick(resource.sim, resource.release)


class Resource:
    """A counted resource with FIFO granting.

    Usage from a process::

        req = resource.request()
        yield req
        try:
            ...
        finally:
            resource.release()

    A flat chain queues its continuation itself (:meth:`request_call`), in
    the one FIFO with the request events.
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise SimError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: deque[Event | Callable[[], None]] = deque()
        self._acq_name = "acquire:" + name  # precomputed: request() is hot
        self._abandon_cb = self._abandon_request  # bound once: request() is hot
        # The engine decides, once: see Simulator.inline_grants.
        self.inline_grants = sim.inline_grants

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_len(self) -> int:
        return len(self._waiters)

    def request(self) -> Event:
        ev = Event(self.sim, name=self._acq_name)
        if self._in_use < self.capacity and not self._waiters:
            self._in_use += 1
            ev.succeed()
        else:
            self._waiters.append(ev)
        ev.abandon = self._abandon_cb
        return ev

    def _abandon_request(self, ev: Event) -> None:
        """Interrupt hook: undo a pending or granted-but-unfired request.

        Without this, interrupting a queued requester leaves its event in
        ``_waiters``; a later :meth:`release` would transfer the slot to the
        dead event and the resource would be held forever.
        """
        if ev._triggered:
            self.release()
        else:
            self._waiters.remove(ev)

    def request_call(self, fn: Callable[[], None]) -> None:
        """:meth:`request` for a flat chain: ``fn()`` runs, holding the
        slot, by ``sim.call_soon`` — where the request event would fire."""
        if self._in_use < self.capacity and not self._waiters:
            self._in_use += 1
            self.sim.call_soon(fn)
        else:
            self._waiters.append(fn)

    def withdraw(self, fn: Callable[[], None]) -> None:
        """:meth:`_abandon_request` for ``fn``: queued, it leaves (found by
        identity); granted, the slot is released now, and ``fn`` must do
        nothing when it runs."""
        waiters = self._waiters
        for i, waiter in enumerate(waiters):
            if waiter is fn:
                del waiters[i]
                return
        self.release()

    def try_acquire(self) -> bool:
        """Take a slot synchronously if one is free *and* nobody is queued.

        This is exactly the condition under which :meth:`request` grants
        immediately; the only difference is that the caller skips the
        zero-delay grant event and continues in the same simulator turn.
        FIFO fairness is preserved: with waiters present the method always
        fails, so a caller can never overtake the queue.  It always fails on
        an engine without ``inline_grants`` (the heapq one), whose caller
        then takes the grant event.
        """
        if self.inline_grants and self._in_use < self.capacity and not self._waiters:
            self._in_use += 1
            return True
        return False

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimError(f"release of idle resource {self.name!r}")
        if self._waiters:
            nxt = self._waiters.popleft()
            if nxt.__class__ is Event:
                nxt.succeed()
            else:
                self.sim.call_soon(nxt)
        else:
            self._in_use -= 1


class Store:
    """Unbounded FIFO of items; ``get`` blocks until an item is available."""

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()
        self._get_name = "get:" + name
        self._abandon_cb = self._abandon_get  # bound once: get() is hot

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        ev = Event(self.sim, name=self._get_name)
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        ev.abandon = self._abandon_cb
        return ev

    def _abandon_get(self, ev: Event) -> None:
        """Interrupt hook: return an undelivered item or dequeue the getter."""
        if ev._triggered:
            # The item was already popped for this getter; put it back at the
            # head (it was logically first) and hand it to the next getter.
            self._items.appendleft(ev._value)
            if self._getters:
                self._getters.popleft().succeed(self._items.popleft())
        else:
            self._getters.remove(ev)
