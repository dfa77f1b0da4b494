"""Event loop and generator-coroutine processes (the substrate under §IV).

The engine follows the classic event-list design: a binary heap of
``(time, sequence, event)`` entries.  Processes are generators; yielding an
:class:`Event` suspends the process until the event succeeds (the event's
value is sent back into the generator) or fails (the failure exception is
thrown into it).  ``yield from`` composes sub-routines, which is how the
whole ROMIO port is written.

Determinism: two events scheduled for the same timestamp fire in scheduling
order (the monotonically increasing sequence number breaks ties), so a run
with a fixed RNG seed is exactly reproducible.

Hot-path notes (measured by ``sim.probe_dispatch_ns_per_event``): the engine
recycles its internal *kick* events — the bootstrap, re-kick, and interrupt
events that exist only to resume a process — through a small free list
instead of allocating one per resume, and :meth:`Simulator.step` fast-paths
the overwhelmingly common single-waiter case.  An opt-in
:class:`~repro.sim.profile.SimProfiler` attached as ``Simulator.profiler``
counts events, heap pressure, and kick-pool reuse without costing anything
when absent.

Two engines implement the same contract:

* :class:`SlottedSimulator` — what every production
  :class:`~repro.machine.Machine` (and :func:`create_simulator`) builds:
  exact-timestamp buckets over a heap of the *distinct* future instants,
  with an O(1) same-instant fast lane (most production events are
  zero-delay) and pooled/recycled ``Timeout``/``Deadline``/``Event``
  objects.  The firing order is provably identical to the heap's
  ``(time, seq)`` order: the lane is FIFO over events due *now*, and
  advancing the clock moves one exact-timestamp bucket (FIFO in scheduling
  order) onto the lane.
* :class:`Simulator` — the historical binary-heap event list.  Kept as
  the engine of the reference stack (``Machine(reference=True)``), against
  which tier-1 asserts the production stack to the byte.

See docs/PERFORMANCE.md ("The slotted scheduler") for the design and the
equality argument.
"""

from __future__ import annotations

import sys
from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

if sys.implementation.name == "cpython":
    from sys import getrefcount as _refcount
else:  # pragma: no cover - non-CPython: refcounts are unreliable there
    def _refcount(obj: Any) -> int:
        return 3  # always "shared": disables event recycling

ProcGen = Generator["Event", Any, Any]


class SimError(RuntimeError):
    """Raised for misuse of the simulation kernel."""


class DeadlockError(SimError):
    """The simulation can make no further progress but processes still wait.

    Raised instead of the bare "event list empty" :class:`SimError` when a
    process registry is attached (chaos/invariant runs): carries a diagnosed
    list of ``(process name, wait reason)`` pairs so a simulated-time
    deadlock reads like a stack dump instead of a silent hang.
    """

    def __init__(self, message: str, blocked: list[tuple[str, str]] | None = None):
        super().__init__(message)
        self.blocked = blocked or []


def describe_blocked(registry) -> list[tuple[str, str]]:
    """``(name, wait reason)`` for every live process in a registry."""
    out = []
    for proc in registry:
        if not proc.is_alive:
            continue
        target = proc._target
        if target is None:
            reason = "running (no wait target)"
        else:
            reason = f"waiting on {target.name or type(target).__name__}"
        out.append((proc.name, reason))
    return out


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    The ``cause`` attribute carries the value given by the interrupter.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence processes can wait on.

    An event is *triggered* (scheduled to fire) via :meth:`succeed` or
    :meth:`fail` and *fired* when the simulator pops it off the event list
    and resumes its waiters.  Callbacks receive the event itself.
    """

    # ``abandon`` is an optional hook: a resource/lock layer that queued a
    # waiter event stores a cleanup callable here, and
    # :meth:`Process.interrupt` invokes it so an interrupted waiter never
    # leaves an orphaned queue entry or leaked slot.  Initialised to None
    # (rather than left unset) so the slotted engine's recycler can clear it
    # with a plain store instead of a guarded ``del``.
    __slots__ = ("sim", "callbacks", "_value", "_ok", "_triggered", "_fired", "name", "abandon")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        self.callbacks: list[Callable[[Event], None]] = []
        self._value: Any = None
        self._ok: Optional[bool] = None
        self._triggered = False
        self._fired = False
        self.abandon: Optional[Callable[[Event], None]] = None

    # -- state inspection ---------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def fired(self) -> bool:
        return self._fired

    @property
    def ok(self) -> bool:
        if self._ok is None:
            raise SimError(f"event {self!r} has no outcome yet")
        return self._ok

    @property
    def value(self) -> Any:
        return self._value

    # -- triggering ---------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Schedule this event to fire successfully after ``delay``."""
        if self._triggered:
            raise SimError(f"event {self!r} already triggered")
        self._triggered = True
        self._ok = True
        self._value = value
        self.sim._schedule(self, delay)
        return self

    def fail(self, exc: BaseException, delay: float = 0.0) -> "Event":
        """Schedule this event to fire by throwing ``exc`` into waiters."""
        if self._triggered:
            raise SimError(f"event {self!r} already triggered")
        if not isinstance(exc, BaseException):
            raise SimError("Event.fail() requires an exception instance")
        self._triggered = True
        self._ok = False
        self._value = exc
        self.sim._schedule(self, delay)
        return self

    def adopt(self, ok: bool, value: Any) -> "Event":
        """Install a fired outcome on a fresh internal event.

        The one audited path that marks an event triggered *with* an
        outcome but without the one-shot guard or the scheduling side
        effect of :meth:`succeed`/:meth:`fail`.  Used by the re-kick path
        (re-delivering an already-fired target to a process) and by the
        slotted engine's Timeout/Deadline/Event pools when re-arming a
        recycled object.  Callers schedule the event themselves.
        """
        self._ok = ok
        self._value = value
        self._triggered = True
        return self

    def __iter__(self):
        """``yield from event`` is ``yield event`` (for callers written for
        the generators callback chains replaced)."""
        return (yield self)

    def _fire_inline(self, value: Any = None, ok: bool = True) -> None:
        """Fire this event synchronously, inside the current callback.

        Flattened state machines (the production stack's callback chains)
        use this to resume their waiters at *exactly* the lane position
        where the generator version
        would have resumed them — i.e. within the callback of the chain's
        final real event, not one zero-delay hop later.  The event never
        enters the event list (it does not count toward ``events_fired``),
        so the waiter cannot be overtaken by other same-instant events the
        way a ``succeed()``-scheduled completion could be.
        """
        self._triggered = True
        self._ok = ok
        self._value = value
        self._fired = True
        callbacks = self.callbacks
        if callbacks:
            self.callbacks = []
            if len(callbacks) == 1:
                callbacks[0](self)
            else:
                for cb in callbacks:
                    cb(self)
        elif not ok:
            raise value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "fired" if self._fired else ("triggered" if self._triggered else "pending")
        label = f" {self.name}" if self.name else ""
        return f"<{type(self).__name__}{label} {state}>"


def abandon(event: Event) -> None:
    """Give up waiting on ``event`` as :meth:`Process.interrupt` does: run
    its ``abandon`` hook, at most once."""
    hook = event.abandon
    if hook is not None:
        event.abandon = None
        hook(event)


def settle(event: Event) -> None:
    """Mark a flat chain's completion ``event`` abandoned: it never fires,
    and every later step of the chain, reading ``_triggered``, does nothing
    (what the interrupted generator would not have done)."""
    event._triggered = True


def at_kick(sim: "Simulator", fn: Callable[[], None]) -> None:
    """Run ``fn()`` where an interrupted generator's ``finally`` runs: at the
    interrupt kick of the process whose wait the ``abandon`` hooks are
    giving up (outside an interrupt, now) — no event of its own."""
    kick = sim.unwinding
    if kick is None:
        fn()
    else:
        kick.callbacks.append(lambda _ev: fn())


class _Kick(Event):
    """A pooled internal event whose only job is to resume one process.

    Kicks fire exactly once, are referenced by nothing after firing (the
    process's ``_target`` points at the *real* event, never the kick), and
    carry no identity semantics — so :meth:`Simulator.step` can safely
    recycle them through :attr:`Simulator._kick_pool`.
    """

    __slots__ = ()

    def _reset(self, name: str) -> None:
        self.name = name
        self._value = None
        self._ok = None
        self._triggered = False
        self._fired = False


class _Call:
    """A bare scheduled callback — the cheapest thing the engine dispatches.

    No Event identity: no waiters, no payload, no success/failure.  Flattened
    fast paths use :meth:`Simulator.call_soon` / :meth:`Simulator.call_later`
    for their internal chain steps — the hops no generator ever awaits —
    turning a pooled Timeout + callbacks-list dispatch into a single
    ``fn()``.  A future call is its own :meth:`SlottedSimulator.cancel`
    handle, which its owner drops once it has fired (so the pool needs no
    refcount guard).
    """

    __slots__ = ("fn", "when")

    def __init__(self) -> None:
        self.fn = None
        self.when = 0.0


class Timeout(Event):
    """An event that fires after a fixed delay; created pre-triggered."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimError(f"negative timeout {delay}")
        # Static name: formatting a per-instance label would cost more than
        # the rest of construction combined on the hot path; the repr below
        # carries the delay for debugging.
        super().__init__(sim, name="timeout")
        self.delay = delay
        self._triggered = True
        self._ok = True
        self._value = value
        sim._schedule(self, delay)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "fired" if self._fired else "triggered"
        return f"<Timeout({self.delay:g}) {state}>"


class Deadline(Event):
    """An event that fires at an **absolute** simulated instant.

    Like :class:`Timeout` but scheduled at ``when`` rather than ``now +
    delay``: when a caller has computed a completion timestamp through a
    chain of float additions, rescheduling via a delay (``when - now``)
    would re-round and land on a slightly different instant.  The bulk
    data-plane fast path uses this to charge a fused sequence of timeouts
    as one event at *exactly* the timestamp the unfused sequence reaches.
    """

    __slots__ = ("when",)

    def __init__(self, sim: "Simulator", when: float, value: Any = None):
        if when < sim.now:
            raise SimError(f"deadline {when} is in the past (now={sim.now})")
        super().__init__(sim, name="deadline")
        self.when = when
        self._triggered = True
        self._ok = True
        self._value = value
        sim._schedule_at(self, when)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "fired" if self._fired else "triggered"
        return f"<Deadline({self.when:g}) {state}>"


class Process(Event):
    """A running generator.  As an Event it fires when the generator returns.

    The event value is the generator's return value; if the generator raises,
    waiters see the exception (unless nobody waits, in which case the error
    propagates out of :meth:`Simulator.run` to avoid silent loss).
    """

    __slots__ = ("gen", "_target", "_defunct")

    def __init__(self, sim: "Simulator", gen: ProcGen, name: str = ""):
        super().__init__(sim, name=name or getattr(gen, "__name__", "process"))
        if not hasattr(gen, "send"):
            raise SimError(f"process body must be a generator, got {type(gen).__name__}")
        self.gen = gen
        self._target: Optional[Event] = None
        self._defunct = False
        if sim.process_registry is not None:
            sim.process_registry[self] = None
        # Bootstrap: resume the generator at time now (pooled kick).
        boot = sim._kick("init")
        boot.callbacks.append(self._resume)
        boot.succeed()

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._triggered or self._defunct:
            return
        sim = self.sim
        kick = sim._kick("interrupt")
        # Detach from whatever the process was waiting on; what the hooks
        # give back ``at_kick`` runs before the throw, as a ``finally`` would.
        target = self._target
        if target is not None:
            if self._resume in target.callbacks:
                target.callbacks.remove(self._resume)
            sim.unwinding = kick
            try:
                abandon(target)
            finally:
                sim.unwinding = None
        self._target = None
        kick.callbacks.append(lambda ev: self._step(throw=Interrupt(cause)))
        kick.succeed()

    # -- internal -----------------------------------------------------------
    def _unregister(self) -> None:
        reg = self.sim.process_registry
        if reg is not None:
            reg.pop(self, None)

    def _resume(self, event: Event) -> None:
        # The send path of _step, inlined (KEEP IN SYNC): one Python call
        # per resume matters at grid event volumes.
        self._target = None
        if not event._ok:
            self._step(throw=event._value)
            return
        if self._defunct:
            return
        sim = self.sim
        sim.active_process = self
        try:
            target = self.gen.send(event._value)
        except StopIteration as stop:
            sim.active_process = None
            self._defunct = True
            self._unregister()
            self.succeed(stop.value)
            return
        except BaseException as exc:
            sim.active_process = None
            self._defunct = True
            self._unregister()
            self.fail(exc)
            return
        sim.active_process = None
        if isinstance(target, Event):
            if target._fired:
                kick = sim._kick("rekick")
                kick.adopt(target._ok, target._value)
                kick.callbacks.append(self._resume)
                sim._schedule(kick, 0.0)
            else:
                target.callbacks.append(self._resume)
            self._target = target
            return
        self._defunct = True
        self._unregister()
        self.fail(SimError(f"process {self.name!r} yielded {target!r}, expected an Event"))

    def _step(self, send: Any = None, throw: Optional[BaseException] = None) -> None:
        if self._defunct:
            return
        self.sim.active_process = self
        try:
            if throw is not None:
                target = self.gen.throw(throw)
            else:
                target = self.gen.send(send)
        except StopIteration as stop:
            self._defunct = True
            self._unregister()
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self._defunct = True
            self._unregister()
            self.fail(exc)
            return
        finally:
            self.sim.active_process = None
        if not isinstance(target, Event):
            self._defunct = True
            self._unregister()
            self.fail(SimError(f"process {self.name!r} yielded {target!r}, expected an Event"))
            return
        if target._fired:
            # Already fired (e.g. a stored value event): resume immediately
            # via a zero-delay kick so we don't recurse unboundedly.
            kick = self.sim._kick("rekick")
            kick.adopt(target._ok, target._value)
            kick.callbacks.append(self._resume)
            self.sim._schedule(kick, 0.0)
        else:
            target.callbacks.append(self._resume)
        self._target = target


class _Condition(Event):
    """Base for AnyOf / AllOf composite events."""

    __slots__ = ("events", "_pending")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, name=type(self).__name__)
        self.events = list(events)
        self._pending = 0
        if not self.events:
            self.succeed([])
            return
        for ev in self.events:
            if ev._fired:
                self._on_child(ev)
            else:
                ev.callbacks.append(self._on_child)
                self._pending += 1

    def _on_child(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(_Condition):
    """Fires once every child event has fired; value is the list of values.

    A failing child fails the condition with the child's exception.
    """

    __slots__ = ("_done",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        self._done = 0
        super().__init__(sim, events)
        self._check()

    def _on_child(self, event: Event) -> None:
        if self._triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._done += 1
        self._check()

    def _check(self) -> None:
        if not self._triggered and self._done == len(self.events):
            self.succeed([ev._value for ev in self.events])


class AnyOf(_Condition):
    """Fires when the first child fires; value is that child's value."""

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        if self._triggered:
            return
        if event._ok:
            self.succeed(event)
        else:
            self.fail(event._value)


class Simulator:
    """The event loop.  One instance per simulated cluster run.

    This is the ``heapq`` engine: a binary heap of ``(time, seq, event)``
    tuples, the reference stack's.  :class:`SlottedSimulator` subclasses it
    with a bucketed event list and object pooling, and is what
    :func:`create_simulator` builds.
    """

    __slots__ = (
        "now",
        "_heap",
        "_seq",
        "active_process",
        "_event_count",
        "_kick_pool",
        "profiler",
        "process_registry",
        "unwinding",
    )

    #: Engine name, for reports.
    kind = "heapq"
    #: Whether a free Resource may grant in its requester's callback
    #: (``Resource.try_acquire``); never here: every grant is an event.
    inline_grants = False
    #: Whether a model collective releases all its ranks through one event
    #: (``ModelCollectives``), which rank classes and a collective write's
    #: call clock need; never here: every rank is released by its own.
    shared_releases = False

    # Kicks recycled beyond this depth are simply dropped; the pool only has
    # to absorb the steady-state resume churn, not a worst-case burst.
    _KICK_POOL_MAX = 256

    def __init__(self):
        self.now: float = 0.0
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        self.active_process: Optional[Process] = None
        self._event_count = 0
        self._kick_pool: list[_Kick] = []
        # Opt-in engine instrumentation (see repro.sim.profile.SimProfiler);
        # a plain attribute so attaching costs nothing when unused.
        self.profiler = None
        # Opt-in process registry (ordered dict used as a set).  When a dict
        # is attached before processes are created, every Process registers
        # itself and deadlock reports can name who is blocked and on what.
        self.process_registry: Optional[dict] = None
        # The interrupt kick under way while abandon hooks run (see at_kick).
        self.unwinding: Optional[Event] = None

    # -- construction helpers ------------------------------------------------
    def event(self, name: str = "") -> Event:
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def at(self, when: float, value: Any = None) -> Deadline:
        """An event firing at the absolute instant ``when`` (see Deadline)."""
        return Deadline(self, when, value)

    def call_soon(self, fn: Callable[[], None]) -> None:
        """Run ``fn()`` at the current instant, after everything already
        scheduled for it — the fire-and-forget form of a zero-delay timeout
        with one callback (and dispatched at exactly that lane position)."""
        self.call_later(0.0, fn)

    def call_later(self, delay: float, fn: Callable[[], None]) -> Optional[Any]:
        """Run ``fn()`` after ``delay``, at the position a timeout scheduled
        now for the same instant would fire.  Returns a handle for
        :meth:`cancel` (None where the engine will not cancel the call)."""
        t = Timeout(self, delay)
        t.callbacks.append(lambda _ev: fn())
        return t

    def cancel(self, handle) -> bool:
        """Stop a :meth:`call_later` call from running (True: it will not);
        here it still fires, as a no-op, so the event count stays put."""
        handle.callbacks.clear()
        return True

    def process(self, gen: ProcGen, name: str = "") -> Process:
        return Process(self, gen, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling ----------------------------------------------------------
    def _kick(self, name: str) -> _Kick:
        """A recycled internal resume event (see :class:`_Kick`)."""
        pool = self._kick_pool
        if pool:
            kick = pool.pop()
            kick._reset(name)
            if self.profiler is not None:
                self.profiler.count("sim.kick_reused")
            return kick
        return _Kick(self, name=name)

    def _schedule(self, event: Event, delay: float) -> None:
        if delay < 0:
            raise SimError(f"cannot schedule in the past (delay={delay})")
        self._seq += 1
        heappush(self._heap, (self.now + delay, self._seq, event))
        if self.profiler is not None:
            self.profiler.heap_sample(len(self._heap))

    def _schedule_at(self, event: Event, when: float) -> None:
        """Schedule at an absolute timestamp (no ``now + delay`` rounding)."""
        self._seq += 1
        heappush(self._heap, (when, self._seq, event))
        if self.profiler is not None:
            self.profiler.heap_sample(len(self._heap))

    def step(self) -> None:
        """Fire the single next event."""
        when, _, event = heappop(self._heap)
        if when < self.now:
            raise SimError("event list corrupted: time went backwards")
        self.now = when
        event._fired = True
        self._event_count += 1
        callbacks = event.callbacks
        if callbacks:
            event.callbacks = []
            if len(callbacks) == 1:
                # Fast path: almost every event has exactly one waiter (the
                # process that yielded it), so skip the loop machinery.
                callbacks[0](event)
            else:
                for cb in callbacks:
                    cb(event)
        elif not event._ok:
            # Unhandled failure: a bare event or a crashed process nobody
            # waited on — propagate instead of losing the error silently.
            raise event._value
        if type(event) is _Kick and len(self._kick_pool) < self._KICK_POOL_MAX:
            event._value = None  # drop any payload reference
            self._kick_pool.append(event)

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run until the event list drains, a deadline passes, or an event fires.

        ``until`` may be a timestamp or an Event (e.g. a Process); when it is
        an event, its value is returned.
        """
        if isinstance(until, Event):
            sentinel = until
            while not sentinel._fired:
                if not self._heap:
                    raise self._deadlock(sentinel)
                self.step()
            if sentinel._ok:
                return sentinel._value
            raise sentinel._value
        deadline = float("inf") if until is None else float(until)
        while self._heap and self._heap[0][0] <= deadline:
            self.step()
        if until is not None and self.now < deadline:
            self.now = deadline
        return None

    def _deadlock(self, sentinel: Event) -> SimError:
        """Build the error for an empty event list with ``sentinel`` unfired.

        With a process registry attached this is a diagnosed
        :class:`DeadlockError` naming each blocked process and its wait
        target; without one, the historical bare :class:`SimError`.
        """
        msg = f"deadlock: event list empty but {sentinel!r} never fired"
        if self.process_registry is None:
            return SimError(msg)
        blocked = describe_blocked(self.process_registry)
        if blocked:
            detail = "; ".join(f"{name}: {reason}" for name, reason in blocked)
            msg = f"{msg} — blocked processes: {detail}"
        return DeadlockError(msg, blocked)

    @property
    def events_fired(self) -> int:
        return self._event_count

    @property
    def pending(self) -> int:
        """Number of scheduled-but-unfired events (engine-agnostic).

        External observers (the chaos invariant monitor, teardown drains)
        use this instead of poking at engine internals like ``_heap``.
        """
        return len(self._heap)


class SlottedSimulator(Simulator):
    """The slotted, allocation-free engine (the production one).

    Three structural changes against the heap engine, none of which alter
    the firing order (``tests/sim/test_engine.py`` and the two-stack golden
    digests enforce byte-identical results):

    * **Same-instant fast lane.**  Events due at the current instant go on
      a FIFO deque; scheduling and firing one is O(1) with no comparisons.
      Most events in a production run are zero-delay (grants, kicks,
      collective releases), so this lane carries the bulk of the traffic.
    * **Bucketed time spine.**  Future events land in an exact-timestamp
      FIFO bucket (``dict``); only *distinct* timestamps enter the spine, a
      ``heapq`` of bare floats (two C calls per instant, and distinct keys
      have one pop order, so no tie-break is needed).  Advancing the clock
      pops the nearest timestamp and moves its whole bucket onto the lane —
      bucket FIFO order is scheduling order, and later same-instant arrivals
      append behind it, which is exactly the heap engine's ``(time, seq)``
      order.
    * **Event pooling.**  Fired ``Timeout``/``Deadline``/``Event`` objects
      (exact types only) are recycled through free lists when nothing else
      references them (``sys.getrefcount == 2`` at the recycle point), the
      way ``_Kick`` always was.  ``sim.timeout()`` then costs a pop and a
      re-arm instead of an allocation.

    What no process waits on is a bare ``_Call`` in the slot its Event would
    take (flat chain steps, flow completions, queued grants).  A future call
    can be taken off the event list again (:meth:`cancel`); the loop skips an
    instant left empty without advancing the clock to it.
    """

    __slots__ = (
        "_lane",
        "_buckets",
        "_times",
        "_timeout_pool",
        "_deadline_pool",
        "_event_pool",
        "_call_pool",
        "_memo_when",
        "_memo_bucket",
    )

    kind = "slotted"
    inline_grants = True
    shared_releases = True

    # Each pool is bounded so a teardown burst cannot pin a run's worth of
    # events; steady-state churn fits comfortably.
    _EVENT_POOL_MAX = 512

    def __init__(self):
        super().__init__()
        self._heap = None  # poison: any heap-engine codepath fails loudly
        self._lane: deque[Event | _Call] = deque()
        self._buckets: dict[float, list[Event | _Call]] = {}
        self._times: list[float] = []  # heap of the distinct bucket instants
        self._timeout_pool: list[Timeout] = []
        self._deadline_pool: list[Deadline] = []
        self._event_pool: list[Event] = []
        self._call_pool: list[_Call] = []
        # One-entry interned-timestamp memo: the most recently touched
        # future bucket.  Shuffle waves and fabric wakes schedule dozens of
        # events at one exact instant; the memo turns those repeat appends
        # into a float compare + list append, skipping the dict probe.
        # Invalidated at every bucket-pop site so a drained instant can
        # never swallow a new append — see step()/run() (KEEP IN SYNC).
        self._memo_when: float = -1.0
        self._memo_bucket: Optional[list] = None

    # -- pooled construction --------------------------------------------------
    def event(self, name: str = "") -> Event:
        pool = self._event_pool
        if pool:
            ev = pool.pop()
            ev.name = name
            if self.profiler is not None:
                self.profiler.count("sim.event_pool_reused")
            return ev
        if self.profiler is not None:
            self.profiler.count("sim.event_pool_alloc")
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        pool = self._timeout_pool
        if pool and delay >= 0:
            t = pool.pop()
            t.delay = delay
            t.adopt(True, value)
            self._schedule(t, delay)
            if self.profiler is not None:
                self.profiler.count("sim.event_pool_reused")
            return t
        if self.profiler is not None:
            self.profiler.count("sim.event_pool_alloc")
        return Timeout(self, delay, value)

    def at(self, when: float, value: Any = None) -> Deadline:
        pool = self._deadline_pool
        if pool and when >= self.now:
            d = pool.pop()
            d.when = when
            d.adopt(True, value)
            self._schedule_at(d, when)
            if self.profiler is not None:
                self.profiler.count("sim.event_pool_reused")
            return d
        if self.profiler is not None:
            self.profiler.count("sim.event_pool_alloc")
        return Deadline(self, when, value)

    def call_soon(self, fn: Callable[[], None]) -> None:
        pool = self._call_pool
        if pool:
            c = pool.pop()
            if self.profiler is not None:
                self.profiler.count("sim.call_pool_reused")
        else:
            c = _Call()
            if self.profiler is not None:
                self.profiler.count("sim.call_pool_alloc")
        c.fn = fn
        self._lane.append(c)

    def call_later(self, delay: float, fn: Callable[[], None]) -> Optional[_Call]:
        when = self.now + delay
        if when <= self.now:
            if delay < 0.0:
                raise SimError(f"cannot schedule in the past (delay={delay})")
            # Zero, or absorbed by the clock's magnitude: due now, so on the
            # lane (a bucket keyed ``now`` would fire behind the whole lane).
            self.call_soon(fn)
            return None
        pool = self._call_pool
        if pool:
            c = pool.pop()
            if self.profiler is not None:
                self.profiler.count("sim.call_pool_reused")
        else:
            c = _Call()
            if self.profiler is not None:
                self.profiler.count("sim.call_pool_alloc")
        c.fn = fn
        c.when = when
        if when == self._memo_when:
            self._memo_bucket.append(c)
            return c
        bucket = self._buckets.get(when)
        if bucket is None:
            self._buckets[when] = bucket = [c]
            heappush(self._times, when)
        else:
            bucket.append(c)
        self._memo_when = when
        self._memo_bucket = bucket
        return c

    def call_at(self, when: float, fn: Callable[[], None]) -> _Call:
        """:meth:`call_later` at the absolute instant ``when``: no ``now +
        delay`` rounding (see :class:`Deadline`)."""
        c = self._call_pool.pop() if self._call_pool else _Call()
        c.fn, c.when = fn, when
        self._schedule_at(c, when)
        return c

    def cancel(self, handle: _Call) -> bool:
        """Take a :meth:`call_later` call off the event list; False, leaving
        it, once its instant has come (its owner's guard must stop it).  An
        emptied bucket goes, and the memo with it; its instant stays on the
        spine for the loop to skip."""
        bucket = self._buckets.get(handle.when)
        if bucket is None:
            return False
        bucket.remove(handle)
        if not bucket:
            del self._buckets[handle.when]
            if bucket is self._memo_bucket:
                self._memo_when, self._memo_bucket = -1.0, None
        return True

    # -- scheduling -----------------------------------------------------------
    def _schedule(self, event: Event, delay: float) -> None:
        if delay == 0.0:
            self._lane.append(event)
        elif delay > 0.0:
            self._schedule_at(event, self.now + delay)
        else:
            raise SimError(f"cannot schedule in the past (delay={delay})")
        if self.profiler is not None:
            self.profiler.heap_sample(len(self._lane) + len(self._buckets))

    def _schedule_at(self, event: Event, when: float) -> None:
        if when <= self.now:
            if when < self.now:
                raise SimError(f"cannot schedule in the past (when={when})")
            self._lane.append(event)
            return
        if when == self._memo_when:
            self._memo_bucket.append(event)
            return
        bucket = self._buckets.get(when)
        if bucket is None:
            self._buckets[when] = bucket = [event]
            heappush(self._times, when)
        else:
            bucket.append(event)
        self._memo_when = when
        self._memo_bucket = bucket

    # -- the loop -------------------------------------------------------------
    def step(self) -> None:
        """Fire the single next event."""
        lane = self._lane
        if not lane:
            when = heappop(self._times)  # IndexError when truly empty
            while when not in self._buckets:  # an instant cancellation emptied
                when = heappop(self._times)
            if when < self.now:
                raise SimError("event list corrupted: time went backwards")
            self.now = when
            # No local keeps the bucket: the pools' refcount guard would fail.
            lane.extend(self._buckets.pop(when))
            if when == self._memo_when:
                self._memo_when = -1.0
                self._memo_bucket = None
        event = lane.popleft()
        if event.__class__ is _Call:
            fn = event.fn
            event.fn = None
            if len(self._call_pool) < self._EVENT_POOL_MAX:
                self._call_pool.append(event)
            self._event_count += 1
            fn()
            return
        event._fired = True
        self._event_count += 1
        callbacks = event.callbacks
        if callbacks:
            if len(callbacks) == 1:
                # Keep the (now empty) list on the event: a recycled event
                # reuses it, saving a list allocation per fire.
                cb = callbacks[0]
                callbacks.clear()
                cb(event)
            else:
                event.callbacks = []
                for cb in callbacks:
                    cb(event)
        elif not event._ok:
            raise event._value
        # Recycle (exact types only — subclasses carry extra identity).  The
        # refcount guard proves nothing else holds the object: 2 == the
        # `event` local plus the getrefcount argument itself.
        cls = event.__class__
        if cls is Timeout:
            pool = self._timeout_pool
        elif cls is Event:
            pool = self._event_pool
        elif cls is _Kick:
            if len(self._kick_pool) < self._KICK_POOL_MAX:
                event._value = None
                self._kick_pool.append(event)
            return
        elif cls is Deadline:
            pool = self._deadline_pool
        else:
            return
        if len(pool) < self._EVENT_POOL_MAX and _refcount(event) == 2:
            # Scrub to factory state (payload refs dropped now, not at reuse).
            event._value = None
            event._ok = None
            event._triggered = False
            event._fired = False
            event.abandon = None
            pool.append(event)

    def run(self, until: Optional[float | Event] = None) -> Any:
        # Hot state bound to locals: the per-event self-attribute lookups
        # and the step() call itself are measurable at grid event volumes.
        # The loop bodies below are step() inlined — KEEP THEM IN SYNC.
        lane = self._lane
        buckets = self._buckets
        times = self._times
        timeout_pool = self._timeout_pool
        event_pool = self._event_pool
        deadline_pool = self._deadline_pool
        kick_pool = self._kick_pool
        kick_max = self._KICK_POOL_MAX
        pool_max = self._EVENT_POOL_MAX
        call_pool = self._call_pool

        if isinstance(until, Event):
            sentinel = until
            while not sentinel._fired:
                if not lane:
                    if not buckets:
                        raise self._deadlock(sentinel)
                    when = heappop(times)
                    if when not in buckets:  # an instant cancellation emptied
                        continue
                    if when < self.now:
                        raise SimError("event list corrupted: time went backwards")
                    self.now = when
                    lane.extend(buckets.pop(when))
                    if when == self._memo_when:
                        self._memo_when = -1.0
                        self._memo_bucket = None
                event = lane.popleft()
                if event.__class__ is _Call:
                    fn = event.fn
                    event.fn = None
                    if len(call_pool) < pool_max:
                        call_pool.append(event)
                    self._event_count += 1
                    fn()
                    continue
                event._fired = True
                self._event_count += 1
                callbacks = event.callbacks
                if callbacks:
                    if len(callbacks) == 1:
                        cb = callbacks[0]
                        callbacks.clear()
                        cb(event)
                    else:
                        event.callbacks = []
                        for cb in callbacks:
                            cb(event)
                elif not event._ok:
                    raise event._value
                cls = event.__class__
                if cls is Timeout:
                    pool = timeout_pool
                elif cls is Event:
                    pool = event_pool
                elif cls is _Kick:
                    if len(kick_pool) < kick_max:
                        event._value = None
                        kick_pool.append(event)
                    continue
                elif cls is Deadline:
                    pool = deadline_pool
                else:
                    continue
                if len(pool) < pool_max and _refcount(event) == 2:
                    event._value = None
                    event._ok = None
                    event._triggered = False
                    event._fired = False
                    event.abandon = None
                    pool.append(event)
            if sentinel._ok:
                return sentinel._value
            raise sentinel._value

        deadline = float("inf") if until is None else float(until)
        while True:
            if not lane:
                if not times or times[0] > deadline:
                    break
                nxt = heappop(times)
                if nxt not in buckets:  # an instant cancellation emptied
                    continue
                self.now = nxt
                lane.extend(buckets.pop(nxt))
                if nxt == self._memo_when:
                    self._memo_when = -1.0
                    self._memo_bucket = None
            elif self.now > deadline:
                break
            event = lane.popleft()
            if event.__class__ is _Call:
                fn = event.fn
                event.fn = None
                if len(call_pool) < pool_max:
                    call_pool.append(event)
                self._event_count += 1
                fn()
                continue
            event._fired = True
            self._event_count += 1
            callbacks = event.callbacks
            if callbacks:
                if len(callbacks) == 1:
                    cb = callbacks[0]
                    callbacks.clear()
                    cb(event)
                else:
                    event.callbacks = []
                    for cb in callbacks:
                        cb(event)
            elif not event._ok:
                raise event._value
            cls = event.__class__
            if cls is Timeout:
                pool = timeout_pool
            elif cls is Event:
                pool = event_pool
            elif cls is _Kick:
                if len(kick_pool) < kick_max:
                    event._value = None
                    kick_pool.append(event)
                continue
            elif cls is Deadline:
                pool = deadline_pool
            else:
                continue
            if len(pool) < pool_max and _refcount(event) == 2:
                event._value = None
                event._ok = None
                event._triggered = False
                event._fired = False
                event.abandon = None
                pool.append(event)
        if until is not None and self.now < deadline:
            self.now = deadline
        return None

    @property
    def pending(self) -> int:
        return len(self._lane) + sum(len(b) for b in self._buckets.values())


def create_simulator() -> SlottedSimulator:
    """The production event-loop engine."""
    return SlottedSimulator()
