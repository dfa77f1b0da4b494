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
collective write (``ext2ph.call_paths``), the body declares those ranks
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
from repro.romio.ext2ph import call_paths
from repro.romio.hints import Hints
from repro.workloads.base import Workload


@dataclass
class PhaseTiming:
    """One rank's timings for one file phase (seconds)."""

    open_time: float = 0.0
    write_time: float = 0.0
    close_wait: float = 0.0
    compute_time: float = 0.0


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
        rank, sim = ctx.rank, ctx.sim
        profiler = sim.profiler
        for k in range(num_files):
            path = f"{file_prefix}{k}"
            if prev_handle is not None:
                t0 = sim.now
                yield from prev_handle.close()
                timings[-1].close_wait = sim.now - t0
                prev_handle = None
            t0 = sim.now
            if wrapper is not None:
                fh = yield from wrapper.file_open(rank, path, hints)
            else:
                fh = yield from layer.open(rank, path, hints)
            timing = PhaseTiming(open_time=sim.now - t0)
            t0 = sim.now
            for step in workload.steps:
                if step.kind == "collective":
                    yield from fh.write_all(step.access_fn(rank, profiler))
                elif step.kind == "rank0":
                    if rank == 0:
                        yield from fh.write_at(step.offset, step.nbytes)
                else:  # pragma: no cover - recipe construction guards this
                    raise ValueError(f"unknown step kind {step.kind!r}")
            timing.write_time = sim.now - t0
            if ctx.machine.faults is not None:
                # Milestone for event-triggered faults (e.g. an aggregator
                # crash "just after writing file k").  First arrival fires
                # untargeted specs; job-addressed specs (fleet crash
                # routing) only consume their own job's milestone.
                ctx.machine.faults.notify(f"write_done:{k}", job=ctx.machine.job_label)
            timings.append(timing)
            if wrapper is not None:
                t0 = sim.now
                yield from fh.close()  # may be deferred by the wrapper
                timing.close_wait = sim.now - t0
            elif deferred_close:
                prev_handle = fh
            else:
                t0 = sim.now
                yield from fh.close()
                timing.close_wait = sim.now - t0
            if k < num_files - 1:
                # Compute phases sit *between* I/O phases; there is nothing
                # after the last write to hide its synchronisation behind
                # (the paper's C(k+1) = 0 for the final phase).
                t0 = sim.now
                yield from ctx.compute(compute_delay)
                timing.compute_time = sim.now - t0
        if prev_handle is not None:
            t0 = sim.now
            yield from prev_handle.close()
            timings[-1].close_wait = sim.now - t0
        if wrapper is not None:
            t0 = sim.now
            yield from wrapper.finalize(rank)
            timings[-1].close_wait += sim.now - t0
        return timings

    def rank_classes():
        """The ranks that are neither rank 0 nor an aggregator as one class,
        if all they will ever do is follow (else None: no classes).  A
        restarted job whose crashed incarnation left journals behind
        replays them on open, the lowest rank of each node for its node."""
        comm, parsed = layer.comm, Hints.from_info(hints)
        leaders = {0, *layer.aggregators(parsed)}
        followers = tuple([r for r in range(comm.size) if r not in leaders])
        if (
            len(followers) < 2
            or wrapper is not None
            or not call_paths(comm, parsed)
            or layer.machine.recovery.has_orphans()
        ):
            return None
        # In order of first members: the class stands where its first would.
        return sorted([followers, *[(r,) for r in leaders]])

    body.rank_classes = rank_classes
    return body
