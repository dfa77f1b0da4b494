"""The speed reference: fixed work that is not the program's.

On the box this benchmark was sized on, the CPU time of *any* fixed piece
of work wanders by 15–50 % over minutes (a 2-vCPU VM with busy
neighbours), which no amount of repetition inside a 20 s run removes.  A
run therefore also times this kernel, many times, between its passes, and
reports CPU time as seconds at the speed at which the kernel takes
``NOMINAL_S``.  The kernel is shaped like the program — a large event heap,
dict ledgers, generators, small numpy calls — because a kernel that fits in
cache does not slow down when the program does (README.md has the
measurements).  It uses the stdlib and numpy only, so no change to
``src/`` can move it.
"""

from __future__ import annotations

import heapq
import time

import numpy as np

#: CPU seconds one slice takes on the sizing box when its neighbours are quiet.
NOMINAL_S = 0.090


class _Event:
    __slots__ = ("time", "seq", "arg")

    def __init__(self, time, seq, arg):
        self.time = time
        self.seq = seq
        self.arg = arg


def _counter():
    value = 0
    while True:
        value = (yield value) + 1


def kernel(steps: int = 40000) -> int:
    """Pop and re-arm ``steps`` events on a 20k-entry heap."""
    heap: list = []
    ledger: dict[int, int] = {}
    push, pop = heapq.heappush, heapq.heappop
    procs = [_counter() for _ in range(64)]
    for proc in procs:
        next(proc)
    offsets = np.arange(256, dtype=np.int64) * 3
    x = 12345
    for seq in range(20000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        push(heap, (x * 1e-9, seq, _Event(x * 1e-9, seq, seq)))
    seq = 20000
    for i in range(steps):
        now, _, event = pop(heap)
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = x & 4095
        ledger[key] = ledger.get(key, 0) + event.arg
        procs[i & 63].send(i)
        if not i & 15:
            np.searchsorted(offsets, key)
            offsets.cumsum()
        seq += 1
        push(heap, (now + x * 1e-9, seq, _Event(now, seq, key)))
    return len(ledger)


def slices(count: int) -> list[float]:
    """CPU seconds of ``count`` back-to-back slices (the first warms the caches)."""
    out = []
    for _ in range(count):
        cpu0 = time.process_time()
        kernel()
        out.append(time.process_time() - cpu0)
    return out
