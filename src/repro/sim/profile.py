"""Opt-in engine instrumentation: where does a simulated run spend its time?

A :class:`SimProfiler` is attached to a simulator (``sim.profiler = prof``,
or via ``Machine(config, profiler=prof)``) and collects three kinds of data
while the run executes:

* **counters** — monotone integers bumped by instrumented components
  (events scheduled, fabric recomputes, flows re-rated, kick-pool reuse);
* **timers** — cumulative wall-clock seconds inside a component: :meth:`lap`
  at hot sites (``fabric.recompute``), else the :meth:`timer` context manager;
* **heap stats** — peak event-list depth, sampled on every schedule.

Everything is plain-dict state with no background machinery, so profiling
a run perturbs it as little as possible — and an *absent* profiler costs a
single ``is None`` check per instrumentation site.  The collected data
feeds ``tools/profile_sweep.py`` and ``benchmarks/e2e``'s per-layer
metrics, and can be merged into the Chrome-trace export
of :class:`repro.sim.trace.Tracer` for side-by-side visual inspection in
``chrome://tracing`` / Perfetto.

Paper correspondence: none (engine instrumentation; see
docs/PERFORMANCE.md).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Optional

from repro.sim.core import Simulator


class SimProfiler:
    """Engine-level counters, component timers, and heap statistics."""

    def __init__(self):
        self.counters: dict[str, int] = {}
        self.timings: dict[str, float] = {}  # cumulative seconds per key
        self.timer_calls: dict[str, int] = {}
        self.heap_peak = 0

    # -- collection ----------------------------------------------------------
    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    @contextmanager
    def timer(self, key: str):
        """Accumulate wall-clock time spent in a component section."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            self.timings[key] = self.timings.get(key, 0.0) + dt
            self.timer_calls[key] = self.timer_calls.get(key, 0) + 1

    def lap(self, key: str, t0: float) -> None:
        """Record one timed span ending now — the manual alternative to
        :meth:`timer` for hot sites that cannot afford a context manager
        (``t0`` from ``time.perf_counter()``)."""
        dt = time.perf_counter() - t0
        self.timings[key] = self.timings.get(key, 0.0) + dt
        self.timer_calls[key] = self.timer_calls.get(key, 0) + 1

    def heap_sample(self, depth: int) -> None:
        if depth > self.heap_peak:
            self.heap_peak = depth

    # -- reporting -----------------------------------------------------------
    def snapshot(self, sim: Optional[Simulator] = None) -> dict[str, Any]:
        """JSON-safe summary; pass the simulator for event/clock totals."""
        out: dict[str, Any] = {
            "counters": dict(sorted(self.counters.items())),
            "timings_s": {k: self.timings[k] for k in sorted(self.timings)},
            "timer_calls": dict(sorted(self.timer_calls.items())),
            "heap_peak": self.heap_peak,
        }
        if sim is not None:
            out["events_fired"] = sim.events_fired
            out["sim_time"] = sim.now
        return out

    def to_chrome_trace_events(self) -> list[dict[str, Any]]:
        """Counter/timer totals as Chrome Trace metadata-style rows.

        Emitted as ``ph: "C"`` (counter) samples at ts=0 so they render in
        the same Perfetto view as a :class:`~repro.sim.trace.Tracer`
        timeline (see ``Tracer.to_chrome_trace(profiler=...)``).
        """
        rows: list[dict[str, Any]] = [
            {
                "name": f"profiler/{key}",
                "ph": "C",
                "ts": 0,
                "pid": 0,
                "tid": "profiler",
                "args": {"value": value},
            }
            for key, value in sorted(self.counters.items())
        ]
        rows.extend(
            {
                "name": f"profiler/{key}.wall_s",
                "ph": "C",
                "ts": 0,
                "pid": 0,
                "tid": "profiler",
                "args": {"value": self.timings[key]},
            }
            for key in sorted(self.timings)
        )
        return rows
