"""Stripe-granular distributed extent locks.

Parallel file systems serialise conflicting writers at lock granularity —
for Lustre/BeeGFS that granularity is effectively the stripe.  The lock
manager hands out reader/writer locks per ``(file, stripe_index)``; each
acquire/release costs one lock RPC.  Two effects the paper discusses fall
out of this model:

* *false sharing*: file domains that straddle a stripe boundary make two
  aggregators contend for the same stripe lock even though their byte
  ranges are disjoint (Section I, bottleneck (b)), and
* the ``e10_cache=coherent`` mode, which holds write locks on cached
  extents until the sync thread has persisted them (Section III-B).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import partial

from repro.sim.core import Event, SimError, Simulator, settle


@dataclass
class _Waiter:
    exclusive: bool
    event: Event


@dataclass
class _StripeLock:
    readers: int = 0
    writer: bool = False
    queue: deque = field(default_factory=deque)


class LockManager:
    """Per-file, per-stripe reader/writer locks with FIFO fairness."""

    def __init__(self, sim: Simulator, lock_rpc_time: float):
        self.sim = sim
        self.lock_rpc_time = float(lock_rpc_time)
        self._locks: dict[tuple[int, int], _StripeLock] = {}
        self.acquires = 0
        self.contended_acquires = 0

    def _slot(self, file_id: int, stripe: int) -> _StripeLock:
        key = (file_id, stripe)
        lock = self._locks.get(key)
        if lock is None:
            lock = self._locks[key] = _StripeLock()
        return lock

    def acquire(self, file_id: int, stripe: int, exclusive: bool = True) -> Event:
        """Obtain the lock: one RPC, plus queueing if contended.  A callback
        chain whose Event fires once the lock is held: inline, or when
        :meth:`_wake` grants it, as the queued waiter it is.  Abandoned, it
        takes no later step (:meth:`_abandon_waiter`)."""
        done = Event(self.sim, name=f"lock:{file_id}:{stripe}")
        done.abandon = settle
        self.sim.call_later(
            self.lock_rpc_time, partial(self._request, file_id, stripe, exclusive, done)
        )
        return done

    def _request(self, file_id: int, stripe: int, exclusive: bool, done: Event) -> None:
        if done._triggered:
            return
        lock = self._slot(file_id, stripe)
        self.acquires += 1
        if self._grantable(lock, exclusive) and not lock.queue:
            self._grant(lock, exclusive)
            done.abandon = None
            done._fire_inline()
            return
        self.contended_acquires += 1
        waiter = _Waiter(exclusive, done)
        lock.queue.append(waiter)
        done.abandon = partial(self._abandon_waiter, lock, waiter)

    def release(self, file_id: int, stripe: int, exclusive: bool = True) -> None:
        lock = self._slot(file_id, stripe)
        if exclusive:
            if not lock.writer:
                raise SimError(f"write-unlock of unheld lock ({file_id},{stripe})")
            lock.writer = False
        else:
            if lock.readers <= 0:
                raise SimError(f"read-unlock of unheld lock ({file_id},{stripe})")
            lock.readers -= 1
        self._wake(lock)

    def snapshot(self) -> list[dict]:
        """Every non-idle stripe lock, for invariant checking.

        Returns dicts with ``file_id``/``stripe``/``writer``/``readers``/
        ``queued`` so a monitor can assert lock-state consistency (e.g. no
        stripe both write- and read-held, no waiters left at quiescence).
        """
        out = []
        for (fid, stripe), lock in self._locks.items():
            if lock.writer or lock.readers or lock.queue:
                out.append(
                    {
                        "file_id": fid,
                        "stripe": stripe,
                        "writer": lock.writer,
                        "readers": lock.readers,
                        "queued": len(lock.queue),
                    }
                )
        return out

    def held(self, file_id: int, stripe: int) -> str:
        lock = self._locks.get((file_id, stripe))
        if lock is None or (not lock.writer and lock.readers == 0):
            return "free"
        return "write" if lock.writer else f"read:{lock.readers}"

    # internals -----------------------------------------------------------------
    @staticmethod
    def _grantable(lock: _StripeLock, exclusive: bool) -> bool:
        if exclusive:
            return not lock.writer and lock.readers == 0
        return not lock.writer

    @staticmethod
    def _grant(lock: _StripeLock, exclusive: bool) -> None:
        if exclusive:
            lock.writer = True
        else:
            lock.readers += 1

    def _abandon_waiter(self, lock: _StripeLock, waiter: _Waiter, done: Event) -> None:
        # The waiting aggregator crashed: drop the queue entry — or revoke
        # the grant if _wake already handed the lock to the dying waiter.
        # Without this a crash while queued leaves the stripe held forever.
        done.callbacks.clear()
        if done._triggered:
            # Granted but never consumed: revoke and pass the lock on.
            if waiter.exclusive:
                lock.writer = False
            else:
                lock.readers -= 1
            self._wake(lock)
        else:
            settle(done)
            lock.queue.remove(waiter)

    def _wake(self, lock: _StripeLock) -> None:
        while lock.queue:
            head: _Waiter = lock.queue[0]
            if not self._grantable(lock, head.exclusive):
                break
            lock.queue.popleft()
            self._grant(lock, head.exclusive)
            head.event.succeed()
            if head.exclusive:
                break
