"""Stack A/B benchmark: production vs reference, with receipts.

Writes a machine-readable report to ``BENCH_engine.json`` (and the grid
leg's event contract to ``BENCH_dataplane.json``):

1. **Scheduler microbenchmark** — grant/hop dispatch churn (a timer grant
   followed by a burst of same-instant hops, the production shape) run on
   both event engines, constructed directly: the heapq ``Simulator``
   dispatches through depth-5 generator stacks (the legacy process model),
   the ``SlottedSimulator`` through flat state-machine callbacks on
   ``call_soon``/``call_later``.  Both sides execute the *same simulated
   schedule*; the report records events/s for each and enforces the
   dispatch-throughput target (>=4.5x under ``--full``, >=2.5x under
   ``--quick``, generous for shared runners) and that the simulated end
   times agree to the last bit.

2. **Fabric microbenchmark** — the funnel pattern under both fair-share
   allocators, constructed directly: ``NaiveFabric`` (the oracle) vs
   ``Fabric`` (incremental recompute, array kernel, rate memo).

3. **Stack grid A/B** — the IOR grid on the production stack and on the
   reference stack (``run_experiment(reference=True)``: heapq engine, naive
   fabric, every grant/release/chunk its own event, per-rank collective
   release, generator sync threads, one process per rank).  Every
   :class:`ExperimentResult` field except the diagnostic ``events`` count
   must be **byte-identical**: production must be a pure performance
   transform of the reference.  ``BENCH_dataplane.json`` records the event
   side of it: the >=2x events reduction is enforced in every mode, a
   >=1.1x wall speedup only under ``--full``; ``--quick`` additionally
   enforces an absolute event-count ceiling on the production grid.

4. **Stack fault + chaos A/B** — the same byte-identity contract under
   injected fault schedules (:mod:`repro.experiments.faultsweep`
   scenarios, each on both stacks) and under a window of randomized chaos
   seeds (:mod:`repro.chaos`: every trial runs both stacks itself and
   reports ``stacks_match``), where recovery, retry and invariant machinery
   exercise interrupt/abandon paths the clean grid never hits.

The exit status is non-zero on any A/B divergence or missed target, so
CI's ``bench-smoke`` job (``--quick``) doubles as a determinism gate;
``benchmarks/check_bench.py`` then compares the written reports against
committed baselines.  See docs/PERFORMANCE.md for how to read the output.

Usage::

    PYTHONPATH=src python benchmarks/bench_engine.py --quick
    PYTHONPATH=src python benchmarks/bench_engine.py --full --out BENCH_engine.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.chaos import ChaosTrialSpec, run_chaos_trial
from repro.experiments.faultsweep import fault_matrix_specs, run_fault_experiment
from repro.experiments.figures import QUICK_AGGREGATORS, QUICK_CB_SIZES
from repro.experiments.runner import CACHE_MODES, ExperimentSpec, run_experiment
from repro.net.fabric import Fabric, NaiveFabric
from repro.sim.core import Simulator, SlottedSimulator
from repro.sim.profile import SimProfiler
from repro.units import MiB

# What this grid cost before the engine work, same container class, serial,
# REPRO_SCALE=0.03125, --no-cache.  Kept as recorded provenance so the JSON
# tells the whole trajectory, not just the in-repo A/B of the day.
RECORDED_BASELINES = {
    "pr1_recorded_s": 410.9,  # PR 1's CHANGES.md entry (pre fault-injection)
    "pristine_head_measured_s": 63.7,  # commit eb60b5d re-timed on this machine
    # Full-grid throughput under the heapq engine at the dataplane PR, from
    # the committed BENCH_engine.json of that revision — the ~39k events/s
    # figure that motivated the slotted scheduler.
    "pr5_full_grid_events_per_sec": 39_431.0,
    # Full-grid slotted throughput at the NVM-device-tier PR (PR 8), from
    # that revision's committed BENCH_engine.json: 1,346,914 events in
    # 30.06 s.  The wall is the baseline the array fair-share kernel's >=2.5x
    # target is measured against; the events/s figure is provenance only —
    # later PRs fire fewer events for the same 36 points, so a rate per
    # event no longer compares like with like (the pr5 figure above predates
    # the slotted engine and is kept for the same reason).
    "pr8_full_grid_events_per_sec": 44_800.8,
    "pr8_full_grid_wall_s": 30.06,
}

# Full-mode gate: the slotted engine must run the same 36-point full grid
# this many times faster (wall) than the pr8 recorded baseline — the
# array-kernel PR's headline target, restated per grid instead of per event.
FULL_GRID_SPEEDUP_TARGET = 2.5

BENCH_SCALE = 0.03125

# Quick-grid production event budget: 208,858 measured since a collective
# write runs on its clock (212,314 since the ranks that only follow run as
# one process, 226,564 since the write-back stages
# wake waiters in place and drain as one chain, 245,868 since the write RPC
# path runs as one chain, 295,020 at the PR that introduced the fast path),
# plus ~15% headroom.  CI's bench-smoke fails when
# production starts firing more events than this — the regression the
# fast paths exist to prevent.  (The reference stack fires ~2.11M on the
# same grid.)
QUICK_BULK_EVENTS_CEILING = 240_000


SCHED_HOPS = 4  # same-instant hops per grant — the production shape


class _FlatChain:
    """Slotted side of the scheduler microbench: one grant/hop chain as an
    explicit state machine — ``__slots__``, pre-bound callbacks, internal
    steps on ``call_soon``/``call_later`` — the exact idiom of the
    flattened fast paths (device I/O, PFS serve, sync flush)."""

    __slots__ = ("sim", "c", "r", "rounds", "h", "_post")

    def __init__(self, sim, c: int, rounds: int):
        self.sim, self.c, self.rounds = sim, c, rounds
        self.r = 0
        self.h = 0
        self._post = sim.call_soon
        self._arm()

    def _arm(self) -> None:
        self.sim.call_later(1e-6 * ((self.c + self.r) % 7 + 1), self._granted)

    def _granted(self) -> None:
        self.h = 0
        self._hop()

    def _hop(self) -> None:
        if self.h == SCHED_HOPS:
            self.r += 1
            if self.r < self.rounds:
                self._arm()
            return
        self.h += 1
        self._post(self._hop)


def scheduler_microbench(kind: str, chains=64, rounds=2500):
    """Pure dispatch churn: per round one timer grant then ``SCHED_HOPS``
    same-instant hops, ``chains`` concurrent chains.

    Both engines execute the same simulated schedule (same grant instants,
    same hops), so the events/s ratio *is* the per-dispatch cost ratio.
    The heapq side runs the legacy process model — each round resumed
    through a depth-5 ``yield from`` stack, matching the rank→layer→
    client→server→device nesting of the real hot paths.  The heapq side
    fires ``2 * chains`` extra events (one boot kick and one process
    completion per chain) — a fixed additive term, not per-round churn.
    """
    sim = {"heapq": Simulator, "slotted": SlottedSimulator}[kind]()
    if kind == "slotted":
        t0 = time.perf_counter()
        for c in range(chains):
            _FlatChain(sim, c, rounds)
        sim.run()
        wall = time.perf_counter() - t0
    else:

        def l5(c, r):
            yield sim.timeout(1e-6 * ((c + r) % 7 + 1))
            for _ in range(SCHED_HOPS):
                ev = sim.event()
                ev.succeed()
                yield ev

        def l4(c, r):
            yield from l5(c, r)

        def l3(c, r):
            yield from l4(c, r)

        def l2(c, r):
            yield from l3(c, r)

        def chain(c):
            for r in range(rounds):
                yield from l2(c, r)

        t0 = time.perf_counter()
        for c in range(chains):
            sim.process(chain(c))
        sim.run()
        wall = time.perf_counter() - t0
    events = sim.events_fired
    return {
        "kind": kind,
        "chains": chains,
        "rounds": rounds,
        "wall_s": wall,
        "sim_end": sim.now,
        "events_fired": events,
        "events_per_sec": events / wall if wall else 0.0,
    }


STACKS = ("reference", "production")


def fault_ab(scenarios, scale: float):
    """Fault-schedule A/B: each scenario on both stacks, full results
    (bandwidths, recovery accounting, checksums, invariant reports) compared
    byte-for-byte excluding the event count."""
    specs = [s for s in fault_matrix_specs(scale=scale) if s.scenario in scenarios]
    mismatches = []
    for spec in specs:
        reference, production = (
            comparable_dict(run_fault_experiment(spec, reference=stack == "reference"))
            for stack in STACKS
        )
        if reference != production:
            mismatches.append(spec.scenario)
    return {
        "scenarios": list(scenarios),
        "kinds": list(STACKS),
        "scale": scale,
        "byte_identical_excluding_events": not mismatches,
        "mismatches": mismatches,
    }


def chaos_ab(seeds, scale: float):
    """Chaos-seed window: randomized fault schedules; each trial runs its
    fault-free twin plus both stacks with the invariant monitor attached and
    must find them in agreement on every simulated quantity."""
    mismatches = []
    for seed in seeds:
        result = run_chaos_trial(ChaosTrialSpec(seed=seed, scale=scale))
        if not (result.ok and result.stacks_match):
            mismatches.append(seed)
    return {
        "seeds": list(seeds),
        "kinds": list(STACKS),
        "scale": scale,
        "byte_identical_excluding_events": not mismatches,
        "mismatches": mismatches,
    }


def fabric_microbench(kind: str, nodes=64, aggs=8, waves=30, ranks=512):
    """Shuffle waves into few aggregators — the fabric-bound hot path."""
    sim = Simulator()
    fabric = {"naive": NaiveFabric, "array": Fabric}[kind](
        sim, num_nodes=nodes, nic_bw=1e9, latency=1e-6
    )
    t0 = time.perf_counter()
    for _ in range(waves):
        for r in range(ranks):
            fabric.start_flow(r % nodes, (r % aggs) * (nodes // aggs), 1e6 + r)
        sim.run()  # drain the wave
    wall = time.perf_counter() - t0
    return {
        "kind": kind,
        "wall_s": wall,
        "sim_end": sim.now,
        "events_fired": sim.events_fired,
        "recomputes": fabric.recomputes,
        "flows_rerated": fabric.recompute_flows,
        "wake_events": fabric.wake_events,
    }


def grid_specs(quick: bool) -> list[ExperimentSpec]:
    """IOR points from the PR-1 sweep grid (the ISSUE's reference workload)."""
    aggs = (QUICK_AGGREGATORS[0], QUICK_AGGREGATORS[-1]) if quick else QUICK_AGGREGATORS
    cbs = (4 * MiB,) if quick else QUICK_CB_SIZES
    return [
        ExperimentSpec(
            benchmark="ior", aggregators=a, cb_buffer=c, cache_mode=m, scale=BENCH_SCALE
        )
        for a in aggs
        for c in cbs
        for m in CACHE_MODES
    ]


def comparable_dict(result) -> dict:
    """A result as compared A/B: everything but the diagnostic event count."""
    d = result.to_dict()
    d.pop("events")
    return d


def run_point(spec, stack: str):
    """One timed point on one stack.  No profiler: timing must not skew."""
    t0 = time.perf_counter()
    result = run_experiment(spec, reference=stack == "reference")
    return result, time.perf_counter() - t0


def run_grid_interleaved(specs, kinds: tuple[str, ...] = STACKS, passes: int = 1):
    """Time every stack point by point, rotating which goes first.

    The timings of a point land adjacent in wall-clock time (and the
    first-runner advantage, if any, rotates), so machine noise — which
    on a shared CI runner easily exceeds the end-to-end delta — hits all
    variants equally instead of whichever grid happened to run second.

    ``passes > 1`` repeats the whole interleaved grid and keeps each kind's
    best (minimum) total wall — the same best-of-reps discipline as the
    scheduler microbench, so a noise spike during one pass cannot sink the
    recorded throughput.  Results and event counts are taken from the last
    pass (the simulation is deterministic, so every pass agrees).
    """
    n = len(kinds)
    results: dict[str, list] = {}
    walls = dict.fromkeys(kinds, float("inf"))
    for _ in range(passes):
        results = {k: [] for k in kinds}
        pass_walls = dict.fromkeys(kinds, 0.0)
        for i, spec in enumerate(specs):
            order = kinds[i % n :] + kinds[: i % n]
            for kind in order:
                result, wall = run_point(spec, kind)
                results[kind].append(result)
                pass_walls[kind] += wall
        for kind in kinds:
            walls[kind] = min(walls[kind], pass_walls[kind])
    stats = {}
    for kind in kinds:
        events = sum(r.events for r in results[kind])
        stats[kind] = {
            "kind": kind,
            "points": len(results[kind]),
            "passes": passes,
            "wall_s": walls[kind],
            "events_fired": events,
            "events_per_sec": events / walls[kind] if walls[kind] else 0.0,
        }
    return results, stats


def profile_point(stack: str, spec):
    """One untimed instrumented run — recompute totals for the report."""
    profiler = SimProfiler()
    run_experiment(spec, profiler=profiler, reference=stack == "reference")
    return profiler.snapshot()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python benchmarks/bench_engine.py", description=__doc__.splitlines()[0]
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--quick",
        action="store_true",
        help="CI-sized run: trimmed microbench + 6-point grid A/B",
    )
    mode.add_argument(
        "--full",
        action="store_true",
        help="full 36-point grid A/B; also enforces the >=3x microbench target",
    )
    parser.add_argument(
        "--out", default="BENCH_engine.json", help="report path (default: %(default)s)"
    )
    parser.add_argument(
        "--out-dataplane",
        default="BENCH_dataplane.json",
        help="the grid leg's event-contract report path (default: %(default)s)",
    )
    args = parser.parse_args(argv)
    quick = args.quick or not args.full

    report = {
        "scale": BENCH_SCALE,
        "mode": "quick" if quick else "full",
        "recorded_baselines": RECORDED_BASELINES,
    }
    failures = []

    # -- scheduler dispatch throughput (the slotted-engine headline) ----------
    rounds, reps = (600, 2) if quick else (2500, 5)
    # The full-mode ratio bar was 5.0x until the array-kernel PR: inlining
    # coroutine _resume into the dispatch loop sped the generator-heavy
    # heapq *reference* ~15-25% while leaving slotted's flat callbacks
    # mostly unchanged, compressing the ratio to ~4.9x on a quiet box.
    # Absolute slotted throughput is now gated separately (the >=2.5x
    # full-grid wall bar below), so the ratio bar only needs to catch
    # dispatch regressions, not re-prove the original headline.
    sched_target = 2.5 if quick else 4.5
    print(
        f"scheduler microbench: 64 chains x {rounds} grant/hop rounds, "
        f"best of {reps} ...",
        flush=True,
    )
    sched: dict[str, dict] = {}
    for _ in range(reps):
        for kind in ("heapq", "slotted"):
            r = scheduler_microbench(kind, rounds=rounds)
            if kind not in sched or r["wall_s"] < sched[kind]["wall_s"]:
                sched[kind] = r
    sched_ratio = sched["slotted"]["events_per_sec"] / sched["heapq"]["events_per_sec"]
    sched_ends_match = sched["heapq"]["sim_end"] == sched["slotted"]["sim_end"]
    report["scheduler_microbench"] = {
        **sched,
        "events_per_sec_ratio": sched_ratio,
        "sim_end_identical": sched_ends_match,
        "target": sched_target,
    }
    if not sched_ends_match:
        failures.append("scheduler microbench simulated end times diverged")
    if sched_ratio < sched_target:
        failures.append(
            f"scheduler dispatch ratio {sched_ratio:.2f}x < "
            f"{sched_target}x target"
        )
    print(
        f"  heapq {sched['heapq']['events_per_sec'] / 1e3:.0f}k ev/s vs slotted "
        f"{sched['slotted']['events_per_sec'] / 1e3:.0f}k ev/s -> "
        f"{sched_ratio:.2f}x",
        flush=True,
    )

    waves = 6 if quick else 30
    print(f"fabric microbench: {waves} shuffle waves, 512 flows/wave ...", flush=True)
    micro = {k: fabric_microbench(k, waves=waves) for k in ("naive", "array")}
    micro_speedup = micro["naive"]["wall_s"] / micro["array"]["wall_s"]
    report["fabric_microbench"] = {
        **micro,
        "speedup": micro_speedup,
        "sim_end_identical": micro["naive"]["sim_end"] == micro["array"]["sim_end"],
    }
    if not report["fabric_microbench"]["sim_end_identical"]:
        failures.append("microbench simulated end times diverged")
    if not quick and micro_speedup < 3.0:
        failures.append(f"microbench speedup {micro_speedup:.2f}x < 3x target")
    print(
        f"  naive {micro['naive']['wall_s']:.2f}s vs array "
        f"{micro['array']['wall_s']:.2f}s -> {micro_speedup:.2f}x",
        flush=True,
    )

    # -- stack grid A/B: the reference stack vs what production runs ----------
    # Full mode times three interleaved passes and keeps the best: the
    # production events/s here is the gated headline number, and best-of-3
    # keeps a runner noise phase (single-core boxes drift +-10% for minutes
    # at a time) from sinking it (identity is checked on every pass).
    specs = grid_specs(quick)
    passes = 1 if quick else 3
    print(
        f"stack grid A/B: {len(specs)} IOR points x 2 stacks"
        f"{f' x {passes} passes' if passes > 1 else ''} ...",
        flush=True,
    )
    results, stats = run_grid_interleaved(specs, passes=passes)
    ref_stats, prod_stats = stats["reference"], stats["production"]
    mismatches = [
        spec.label + "/" + spec.cache_mode
        for spec, a, b in zip(specs, results["reference"], results["production"])
        if comparable_dict(a) != comparable_dict(b)
    ]
    if mismatches:
        failures.append(f"stack grid A/B diverged at: {', '.join(mismatches)}")
    speedup = ref_stats["wall_s"] / prod_stats["wall_s"]
    report["grid_ab"] = {
        "reference": ref_stats,
        "production": prod_stats,
        "speedup_vs_reference": speedup,
        "byte_identical_excluding_events": not mismatches,
        "compared_fields": sorted(comparable_dict(results["production"][0])),
    }
    # Recompute accounting from the most fabric-heavy point, measured in a
    # separate instrumented pass so the timing above stays unperturbed.
    heavy = max(specs, key=lambda s: (s.cache_mode == "enabled", s.aggregators))
    report["profiled_point"] = {
        "label": f"{heavy.label}/{heavy.cache_mode}",
        **{stack: profile_point(stack, heavy) for stack in STACKS},
    }
    if not quick:
        report["grid_ab"]["speedup_vs_pr1_recorded"] = (
            RECORDED_BASELINES["pr1_recorded_s"] / prod_stats["wall_s"]
        )
        report["grid_ab"]["speedup_vs_pristine_head"] = (
            RECORDED_BASELINES["pristine_head_measured_s"] / prod_stats["wall_s"]
        )
        # The gated ratio: full-grid production wall against the PR-8
        # recorded baseline (the revision that preceded the array kernel).
        # Same 36 points on both sides, so the event count cancels out of it.
        vs_pr8 = RECORDED_BASELINES["pr8_full_grid_wall_s"] / prod_stats["wall_s"]
        report["grid_ab"]["wall_speedup_vs_pr8_recorded"] = vs_pr8
        report["grid_ab"]["full_grid_speedup_target"] = FULL_GRID_SPEEDUP_TARGET
        if vs_pr8 < FULL_GRID_SPEEDUP_TARGET:
            failures.append(
                f"full-grid production wall only {vs_pr8:.2f}x faster than the pr8 "
                f"recorded baseline (< {FULL_GRID_SPEEDUP_TARGET}x target)"
            )
    print(
        f"  reference {ref_stats['wall_s']:.1f}s vs production "
        f"{prod_stats['wall_s']:.1f}s -> {speedup:.2f}x, identical={not mismatches}",
        flush=True,
    )

    # The grid leg's event contract: every simulated quantity byte-identical
    # (above), and the diagnostic event count must drop.
    dp_failures = []
    events_reduction = (
        ref_stats["events_fired"] / prod_stats["events_fired"]
        if prod_stats["events_fired"]
        else 0.0
    )
    if events_reduction < 2.0:
        dp_failures.append(f"events reduction {events_reduction:.2f}x < 2x target")
    # The 1.5x wall target from the dataplane PR predates the slotted
    # scheduler; the contract is the >=2x events reduction above, the wall
    # edge a bonus gated loosely.
    if not quick and speedup < 1.1:
        dp_failures.append(f"production wall speedup {speedup:.2f}x < 1.1x target")
    if quick and prod_stats["events_fired"] > QUICK_BULK_EVENTS_CEILING:
        dp_failures.append(
            f"quick-grid production events {prod_stats['events_fired']} > "
            f"ceiling {QUICK_BULK_EVENTS_CEILING}"
        )
    dataplane_report = {
        "scale": BENCH_SCALE,
        "mode": "quick" if quick else "full",
        "grid_ab": {
            "reference": ref_stats,
            "production": prod_stats,
            "speedup_vs_reference": speedup,
            "events_reduction_vs_reference": events_reduction,
            "byte_identical_excluding_events": not mismatches,
        },
        "quick_bulk_events_ceiling": QUICK_BULK_EVENTS_CEILING,
        "ok": not (dp_failures or mismatches),
        "failures": dp_failures,
    }
    with open(args.out_dataplane, "w") as fh:
        json.dump(dataplane_report, fh, indent=2, sort_keys=True)
    print(f"wrote {args.out_dataplane}")
    print(f"  {events_reduction:.2f}x fewer events on production", flush=True)
    failures.extend(dp_failures)

    # -- stack A/B under fault schedules and a chaos-seed window --------------
    if quick:
        scenarios = ("baseline", "ssd_flaky")
    else:
        scenarios = (
            "baseline",
            "ssd_flaky",
            "server_stall",
            "link_degraded",
            "ssd_loss",
            "agg_crash",
        )
    print(f"stack fault A/B: {len(scenarios)} scenarios x 2 stacks ...", flush=True)
    report["fault_ab"] = fault_ab(scenarios, 0.125)
    if not report["fault_ab"]["byte_identical_excluding_events"]:
        failures.append(
            "stack fault A/B diverged at: "
            + ", ".join(report["fault_ab"]["mismatches"])
        )
    chaos_seeds = range(2) if quick else range(8)
    print(f"stack chaos A/B: {len(chaos_seeds)} seeds x 2 stacks ...", flush=True)
    report["chaos_ab"] = chaos_ab(chaos_seeds, 0.125)
    if not report["chaos_ab"]["byte_identical_excluding_events"]:
        failures.append(
            "stack chaos A/B diverged at seeds: "
            + ", ".join(str(s) for s in report["chaos_ab"]["mismatches"])
        )
    print(
        f"  fault identical={report['fault_ab']['byte_identical_excluding_events']}, "
        f"chaos identical={report['chaos_ab']['byte_identical_excluding_events']}",
        flush=True,
    )

    report["ok"] = not failures
    report["failures"] = failures
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    print(f"wrote {args.out}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
