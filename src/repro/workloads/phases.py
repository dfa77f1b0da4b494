"""Multi-phase application driver — the paper's Fig. 3 workflows.

An application alternates I/O phases (write one shared file) with compute
phases.  Two workflows:

* **standard** (cache disabled): open → write → close → compute.
* **modified** (cache enabled): open → write → compute, with the close of
  file *k* deferred to just before the open of file *k+1*, so background
  cache synchronisation overlaps the compute phase and ``close`` only pays
  whatever is *not* hidden.

The driver records per-rank, per-phase timings that feed Equations (1)/(2)
(:mod:`repro.analysis.bandwidth`).

Only rank 0 and the aggregators decide or write anything here.  Where it
is certain before the run that every other rank will park on each
collective write (``ext2ph.fast_paths``), the body declares those ranks
one *class* (``body.rank_classes``): ``MPIWorld.spawn`` runs them as one
process that opens, writes, computes and closes once for all of them.
The same body serves a class and a rank on its own; results are
identical, only the event count drops (docs/PERFORMANCE.md, "Rank
classes").

Paper correspondence: Fig. 3 — the write/compute/write workflow whose
overlap the cache exploits; drives every §IV measurement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.mpi.process import MPIContext
from repro.romio.ext2ph import fast_paths
from repro.romio.hints import Hints
from repro.workloads.base import Workload


@dataclass
class PhaseTiming:
    """One rank's timings for one file phase (seconds)."""

    open_time: float = 0.0
    write_time: float = 0.0
    close_wait: float = 0.0
    compute_time: float = 0.0

    @property
    def io_time(self) -> float:
        """Eq. (1) denominator contribution: T_c(k) + max(0, T_s - C)."""
        return self.open_time + self.write_time + self.close_wait


def multi_phase_body(
    layer,
    workload: Workload,
    hints: dict,
    num_files: int = 4,
    compute_delay: float = 30.0,
    deferred_close: bool = False,
    file_prefix: str = "/global/out_",
    wrapper=None,
) -> Callable[[MPIContext], object]:
    """Build the per-rank generator body for a phased run.

    When ``wrapper`` (an :class:`~repro.mpiwrap.MPIWrap`) is given, opens
    and closes go through it and ``deferred_close`` is taken from its
    config (the legacy-application path); otherwise the body itself
    implements the modified workflow when ``deferred_close`` is set.
    """

    def body(ctx: MPIContext):
        timings: list[PhaseTiming] = []
        prev_handle = None
        profiler = ctx.sim.profiler
        for k in range(num_files):
            path = f"{file_prefix}{k}"
            if prev_handle is not None:
                t0 = ctx.now
                yield from prev_handle.close()
                timings[-1].close_wait = ctx.now - t0
                prev_handle = None
            t0 = ctx.now
            if wrapper is not None:
                fh = yield from wrapper.file_open(ctx.rank, path, hints)
            else:
                fh = yield from layer.open(ctx.rank, path, hints)
            timing = PhaseTiming(open_time=ctx.now - t0)
            t0 = ctx.now
            for step in workload.steps:
                if step.kind == "collective":
                    acc = step.access_fn(ctx.rank, profiler)
                    yield from fh.write_all(acc)
                elif step.kind == "rank0":
                    if ctx.rank == 0:
                        yield from fh.write_at(step.offset, step.nbytes)
                else:  # pragma: no cover - recipe construction guards this
                    raise ValueError(f"unknown step kind {step.kind!r}")
            timing.write_time = ctx.now - t0
            faults = getattr(ctx.machine, "faults", None)
            if faults is not None:
                # Milestone for event-triggered faults (e.g. an aggregator
                # crash "just after writing file k").  First arrival fires
                # untargeted specs; job-addressed specs (fleet crash
                # routing) only consume their own job's milestone.
                faults.notify(
                    f"write_done:{k}",
                    job=getattr(ctx.machine, "job_label", None),
                )
            timings.append(timing)
            if wrapper is not None:
                t0 = ctx.now
                yield from fh.close()  # may be deferred by the wrapper
                timing.close_wait = ctx.now - t0
            elif deferred_close:
                prev_handle = fh
            else:
                t0 = ctx.now
                yield from fh.close()
                timing.close_wait = ctx.now - t0
            if k < num_files - 1:
                # Compute phases sit *between* I/O phases; there is nothing
                # after the last write to hide its synchronisation behind
                # (the paper's C(k+1) = 0 for the final phase).
                t0 = ctx.now
                yield from ctx.compute(compute_delay)
                timing.compute_time = ctx.now - t0
        if prev_handle is not None:
            t0 = ctx.now
            yield from prev_handle.close()
            timings[-1].close_wait = ctx.now - t0
        if wrapper is not None:
            t0 = ctx.now
            yield from wrapper.finalize(ctx.rank)
            timings[-1].close_wait += ctx.now - t0
        return timings

    def rank_classes():
        """The ranks that are neither rank 0 nor an aggregator as one class,
        if all they will ever do is follow (else None: no classes)."""
        comm, parsed = layer.comm, Hints.from_info(hints)
        leaders = {0, *layer.aggregators(parsed)}
        followers = tuple(r for r in range(comm.size) if r not in leaders)
        if (
            len(followers) < 2
            or wrapper is not None
            or not fast_paths(layer.machine, comm, layer.exchange_mode, parsed)[1]
        ):
            return None
        # In order of first members: the class stands where its first would.
        return sorted([followers, *[(r,) for r in leaders]])

    body.rank_classes = rank_classes
    return body
