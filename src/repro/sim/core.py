"""Event loop and generator-coroutine processes (the substrate under §IV).

Processes are generators; yielding an :class:`Event` suspends the process
until the event succeeds (the event's value is sent back into the
generator) or fails (the failure exception is thrown into it).  ``yield
from`` composes sub-routines, which is how the whole ROMIO port is written.

Determinism: two events scheduled for the same timestamp fire in scheduling
order (a monotonically increasing sequence number breaks ties), so a run
with a fixed RNG seed is exactly reproducible.

This module has one engine, :class:`Simulator` (its docstring has the
design), which every production :class:`~repro.machine.Machine` builds; an
opt-in :class:`~repro.sim.profile.SimProfiler` attached as its ``profiler``
counts events, queue depth and pool reuse.  Its firing order is that of a
plain ``(time, seq, event)`` heap: the reference stack's engine,
:class:`repro.reference.HeapSimulator`, which shares only the Event classes
and their protocol with it (docs/PERFORMANCE.md, "The slotted scheduler").
"""

from __future__ import annotations

import sys
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


#: Every Event class (filled by ``Event.__init_subclass__``): the slotted
#: loop tells an event from a scheduled callable by ``__class__``
#: membership here, without a call per item.
_EVENT_CLASSES: set[type] = set()


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
        slotted engine's Timeout/Event pools when re-arming a recycled
        object.  Callers schedule the event themselves.
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
            for cb in callbacks:
                cb(self)
        elif not ok:
            raise value

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        _EVENT_CLASSES.add(cls)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "fired" if self._fired else ("triggered" if self._triggered else "pending")
        label = f" {self.name}" if self.name else ""
        return f"<{type(self).__name__}{label} {state}>"


_EVENT_CLASSES.add(Event)


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


class Timeout(Event):
    """An event that fires after a fixed delay; created pre-triggered."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if not delay >= 0:
            raise SimError(f"negative or NaN timeout (delay={delay})")
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
        if target.__class__ in _EVENT_CLASSES:
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


class AllOf(Event):
    """Fires once every child event has fired; value is the list of values.

    A failing child fails the condition with the child's exception.
    """

    __slots__ = ("events", "_done")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, name="AllOf")
        self.events = list(events)
        self._done = 0
        for ev in self.events:
            if ev._fired:
                self._on_child(ev)
            else:
                ev.callbacks.append(self._on_child)
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


class _Never:
    """The sentinel of a run with none: never fires."""

    __slots__ = ()
    _fired = False


class _Once:
    """:meth:`Simulator.step`'s sentinel: fired once one more item has."""

    __slots__ = ("sim", "start")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.start = sim._event_count

    @property
    def _fired(self) -> bool:
        return self.sim._event_count != self.start


_NEVER = _Never()
_INF = float("inf")


class Simulator:
    """The event loop.  One instance per simulated cluster run.

    The future is a binary heap, but of *instants*, not of events; three
    structural choices keep the firing order that of a plain ``(time,
    seq, event)`` heap (the reference stack's
    :class:`~repro.reference.HeapSimulator`, against which the two-stack
    golden digests and ``tests/sim/test_engine.py`` hold it):

    * **Same-instant lane, walked as a batch.**  Events due at the current
      instant go on a plain list; the loop takes the whole lane (swapping in
      a fresh one) or, once it is dry, the next instant's buckets, and fires
      it with a ``for`` loop.  What the batch schedules for *now* lands on
      the fresh lane — the next batch — exactly where a FIFO would put it.
      Most events in a production run are zero-delay (grants, kicks,
      collective releases), so the lane carries the bulk of the traffic.
    * **One heap of instant entries.**  The future is a ``heapq`` of
      ``[when, seq, bucket]`` entries; a one-entry memo appends what is
      scheduled for the last entry's instant to its bucket, and anything
      else pushes a new entry (so an instant holding one item costs one push
      and one pop).  Advancing the clock pops the head entry and merges
      every further entry of the same instant into the batch, in ``seq``
      order — each bucket is in scheduling order and ``seq`` orders the
      buckets, and same-instant arrivals queue on the lane behind the
      batch, which is exactly the ``(time, seq)`` order.
    * **Event pooling.**  Fired ``Timeout``/``Event`` objects
      (exact types only) are recycled through free lists when nothing else
      references them (``sys.getrefcount == 3`` at the recycle point), and
      ``_Kick`` always is.  ``sim.timeout()`` then costs a pop and a
      re-arm instead of an allocation.

    What no process waits on is the bare callable itself, in the slot its
    Event would take (flat chain steps, flow completions, queued grants):
    the loop tells the two apart by ``__class__`` membership in the Event
    classes.  A future call can be taken off the event list again
    (:meth:`cancel`); the loop skips an instant left empty without
    advancing the clock to it.
    """

    __slots__ = (
        "now",
        "_seq",
        "active_process",
        "_event_count",
        "_kick_pool",
        "profiler",
        "process_registry",
        "unwinding",
        "_lane",
        "_future",
        "_batch",
        "_base",
        "_timeout_pool",
        "_event_pool",
        "_memo_when",
        "_memo",
    )

    #: Engine name, for reports.
    kind = "slotted"
    #: Whether a free Resource may grant in its requester's callback
    #: (``Resource.try_acquire``) rather than through a grant event.
    inline_grants = True
    #: Whether a model collective releases all its ranks through one event
    #: (``ModelCollectives``), which rank classes and a collective write's
    #: call clock need, rather than each rank through its own.
    shared_releases = True

    # Each pool is bounded so a teardown burst cannot pin a run's worth of
    # events; steady-state churn fits comfortably.
    _KICK_POOL_MAX = 256
    _EVENT_POOL_MAX = 512

    def __init__(self):
        self.now: float = 0.0
        self._seq = 0
        self.active_process: Optional[Process] = None
        self._event_count = 0
        # Opt-in engine instrumentation (see repro.sim.profile.SimProfiler);
        # a plain attribute so attaching costs nothing when unused.
        self.profiler = None
        # Opt-in process registry (ordered dict used as a set).  When a dict
        # is attached before processes are created, every Process registers
        # itself and deadlock reports can name who is blocked and on what.
        self.process_registry: Optional[dict] = None
        # The interrupt kick under way while abandon hooks run (see at_kick).
        self.unwinding: Optional[Event] = None
        self._lane: list = []
        self._future: list[list] = []  # heap of [when, seq, bucket] entries
        # The batch under way and the event count it started at: its
        # unfired tail is still due now (``pending``, the profiler's depth).
        self._batch: list = []
        self._base = 0
        self._kick_pool: list[_Kick] = []
        self._timeout_pool: list[Timeout] = []
        self._event_pool: list[Event] = []
        # One-entry memo: the most recently pushed entry.  Shuffle waves and
        # fabric wakes schedule dozens of events at one exact instant; the
        # memo turns those repeat schedules into a float compare + list
        # append.  Dropped where its entry leaves the heap (the loop) or is
        # emptied (``cancel``).
        self._memo_when: float = -1.0
        self._memo: Optional[list] = None

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

    def call_soon(self, fn: Callable[[], None]) -> None:
        """Run ``fn()`` at the current instant, after everything already
        scheduled for it — the fire-and-forget form of a zero-delay timeout
        with one callback (and dispatched at exactly that lane position)."""
        self._lane.append(fn)

    def call_later(self, delay: float, fn: Callable[[], None]) -> Optional[tuple]:
        """Run ``fn()`` after ``delay``, at the position a timeout scheduled
        now for the same instant would fire.  The handle, for
        :meth:`cancel`, is ``(entry, fn)``: the heap entry holding the call
        and the callable (None when the call is due now, on the lane)."""
        when = self.now + delay
        if not when > self.now:
            if not delay >= 0.0:
                raise SimError(f"cannot schedule before now or at NaN (delay={delay})")
            # Zero, or absorbed by the clock's magnitude: due now, so on the
            # lane (an entry for ``now`` would fire behind the whole lane).
            self._lane.append(fn)
            return None
        if when == self._memo_when:
            entry = self._memo
            entry[2].append(fn)
        else:
            self._seq += 1
            self._memo = entry = [when, self._seq, [fn]]
            self._memo_when = when
            heappush(self._future, entry)
        return entry, fn

    def call_all_later(self, delay: float, items: list) -> None:
        """``items`` (callables, and Events given their outcome by ``adopt``)
        after ``delay``, in one call: each in the slot, and at the event
        count, of its own :meth:`call_later` or ``succeed(delay=...)``."""
        when = self.now + delay
        lane = not when > self.now
        if lane:
            if not delay >= 0.0:
                raise SimError(f"cannot schedule before now or at NaN (delay={delay})")
            self._lane += items
        elif when == self._memo_when:
            self._memo[2] += items
        elif items:
            self._seq += 1
            self._memo = [when, self._seq, [*items]]
            self._memo_when = when
            heappush(self._future, self._memo)
        if self.profiler is not None:
            # The depth the last Event's own schedule would have sampled.
            for back, item in enumerate(reversed(items)):
                if item.__class__ in _EVENT_CLASSES:
                    due = len(self._lane) + len(self._batch) - (self._event_count - self._base)
                    self.profiler.heap_sample(due + len(self._future) - lane * back)
                    break

    def call_at(self, when: float, fn: Callable[[], None]) -> None:
        """:meth:`call_later` at the absolute instant ``when``: no ``now +
        delay`` rounding (a completion instant computed through a chain of
        float additions lands exactly where it was computed), and no
        handle."""
        self._schedule_at(fn, when)

    def cancel(self, handle: tuple) -> bool:
        """Take a :meth:`call_later` call off the event list; False, leaving
        it, once its instant has come (its owner's guard must stop it).  An
        emptied entry stays on the heap for the loop to skip, and drops the
        memo.  Cancel a handle once: the call is found by identity, and the
        same callable may be due again at its instant."""
        entry, fn = handle
        if entry[0] <= self.now:  # popped: every entry left is in the future
            return False
        bucket = entry[2]
        for i, item in enumerate(bucket):
            if item is fn:
                del bucket[i]
                break
        else:
            return False
        if not bucket and entry is self._memo:
            self._memo_when, self._memo = -1.0, None
        return True

    def process(self, gen: ProcGen, name: str = "") -> Process:
        return Process(self, gen, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling -----------------------------------------------------------
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
        if delay == 0.0:
            self._lane.append(event)
        elif delay > 0.0:
            self._schedule_at(event, self.now + delay)
        else:
            raise SimError(f"cannot schedule before now or at NaN (delay={delay})")
        if self.profiler is not None:
            # The lane, the unfired tail of the batch under way, the entries.
            due = len(self._lane) + len(self._batch) - (self._event_count - self._base)
            self.profiler.heap_sample(due + len(self._future))

    def _schedule_at(self, item, when: float) -> None:
        if not when > self.now:
            if when != self.now:
                raise SimError(f"cannot schedule before now or at NaN (when={when})")
            self._lane.append(item)
            return
        if when == self._memo_when:
            self._memo[2].append(item)
            return
        self._seq += 1
        self._memo = entry = [when, self._seq, [item]]
        self._memo_when = when
        heappush(self._future, entry)

    # -- the loop -------------------------------------------------------------
    def step(self) -> None:
        """Fire the single next item (IndexError when there is none)."""
        once = _Once(self)
        self._dispatch(once, _INF)
        if not once._fired:
            raise IndexError("step() on an empty event list")

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run until the event list drains, a deadline passes, or an event fires.

        ``until`` may be a timestamp or an Event (e.g. a Process); when it is
        an event, its value is returned.
        """
        if isinstance(until, Event):
            self._dispatch(until, _INF)
            if not until._fired:
                raise self._deadlock(until)
            if until._ok:
                return until._value
            raise until._value
        deadline = _INF if until is None else float(until)
        if deadline != deadline:
            raise SimError(f"cannot run until NaN (until={until!r})")
        self._dispatch(_NEVER, deadline)
        if until is not None and self.now < deadline:
            self.now = deadline
        return None

    def _dispatch(self, sentinel, deadline: float) -> None:
        """The one dispatch loop, behind :meth:`step` and both :meth:`run`
        modes: fire batches — the lane, else the buckets of the next instant
        not past ``deadline`` — until none is left or ``sentinel`` has
        fired.  Stopped mid-batch by the sentinel or by a raising callback,
        it puts the unfired tail back at the head of the lane first.  Not
        re-entrant: a callback must not run the engine it is called from."""
        # Hot state bound to locals: per-item attribute lookups are
        # measurable at grid event volumes.
        future = self._future
        event_classes = _EVENT_CLASSES
        timeout_pool = self._timeout_pool
        event_pool = self._event_pool
        kick_pool = self._kick_pool
        kick_max = self._KICK_POOL_MAX
        pool_max = self._EVENT_POOL_MAX

        while not sentinel._fired:
            batch = self._lane
            if batch:
                if self.now > deadline:
                    return
                self._lane = []
            else:
                if not future or future[0][0] > deadline:
                    return
                when, _, batch = heappop(future)
                # The instant's later entries (memo misses), in seq order.
                while future and future[0][0] == when:
                    batch += heappop(future)[2]
                if when == self._memo_when:
                    self._memo_when = -1.0
                    self._memo = None
                if not batch:  # an instant cancellation emptied
                    continue
                self.now = when
            self._batch = batch
            self._base = base = self._event_count
            try:
                for event in batch:
                    if sentinel._fired:
                        break
                    self._event_count += 1
                    cls = event.__class__
                    if cls not in event_classes:
                        event()  # a scheduled call
                        continue
                    event._fired = True
                    callbacks = event.callbacks
                    if callbacks:
                        if len(callbacks) == 1:
                            # Keep the (now empty) list on the event: a
                            # recycled event reuses it, saving a list
                            # allocation per fire.
                            cb = callbacks[0]
                            callbacks.clear()
                            cb(event)
                        else:
                            event.callbacks = []
                            for cb in callbacks:
                                cb(event)
                    elif not event._ok:
                        # Unhandled failure: a bare event or a crashed
                        # process nobody waited on — propagate it.
                        raise event._value
                    # Recycle (exact types only — subclasses carry extra
                    # identity).  The refcount guard proves nothing else
                    # holds the object: 3 == the batch's slot, the `event`
                    # local and the getrefcount argument itself.
                    if cls is Timeout:
                        pool = timeout_pool
                    elif cls is Event:
                        pool = event_pool
                    elif cls is _Kick:
                        if len(kick_pool) < kick_max:
                            event._value = None
                            kick_pool.append(event)
                        continue
                    else:
                        continue
                    if len(pool) < pool_max and _refcount(event) == 3:
                        # Scrub to factory state (payload refs dropped now).
                        event._value = None
                        event._ok = None
                        event._triggered = False
                        event._fired = False
                        event.abandon = None
                        pool.append(event)
                else:
                    continue
            except BaseException:
                self._requeue(batch, base)
                raise
            self._requeue(batch, base)

    def _requeue(self, batch: list, base: int) -> None:
        """Put what ``batch`` has not fired back at the head of the lane."""
        tail = batch[self._event_count - base :]
        tail += self._lane
        self._lane = tail
        self._batch = []
        self._base = self._event_count

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
        """Number of scheduled-but-unfired items: what the chaos invariant
        monitor and teardown drains read instead of engine internals."""
        due = len(self._lane) + len(self._batch) - (self._event_count - self._base)
        return due + sum(len(entry[2]) for entry in self._future)


def create_simulator() -> Simulator:
    """The production event-loop engine."""
    return Simulator()
