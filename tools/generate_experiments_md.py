#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md: run every figure and record paper-vs-measured.

Usage:  python tools/generate_experiments_md.py [--jobs N] [--no-cache] [output]
        python tools/generate_experiments_md.py --scale 1 --full-sweep  (paper size)

Figures are produced through the shared SweepRunner, so ``--jobs`` fans the
measurement points over worker processes and a warm ``.repro_cache/`` makes
regeneration nearly free.
"""

import argparse
import os
import random
import sys
import time

from repro import fleet, options
from repro.config import FlashConfig
from repro.experiments import faultsweep, figures
from repro.experiments.runner import (
    DEFAULT_SCALE,
    ExperimentSpec,
    resolve_config,
    run_experiment,
)
from repro.units import GiB
from repro.experiments.parallel import SweepRunner, default_jobs
from repro.experiments.report import (
    render_bandwidth_table,
    render_breakdown_table,
    shape_checks_bandwidth,
)
from repro.experiments.resultcache import ResultCache
from repro.hw.flash import FlashSSDDevice
from repro.sim.core import Simulator
from repro.units import MiB

PAPER_NOTES = {
    "fig4": (
        "Paper: BW Cache Disable ≈ 2 GB/s everywhere; BW Cache Enable peaks "
        "≈ 20 GB/s (10x) at 64 aggregators; at 8 aggregators the flush cannot "
        "hide and perceived BW drops below the theoretical series (and can "
        "fall below the disabled case)."
    ),
    "fig5": (
        "Paper: not_hidden_sync appears only in the 8-aggregator "
        "configurations; global sync terms are small; larger collective "
        "buffers bring little improvement with the cache."
    ),
    "fig6": (
        "Paper: the write term dominates; shuffle_all2all and post_write are "
        "consistently larger than with the cache (Fig. 5)."
    ),
    "fig7": (
        "Paper: Flash-IO peaks ≈ 40 GB/s at 64 aggregators / 4 MB buffer vs "
        "≈ 2 GB/s to the file system; 8 aggregators again mismatch perceived "
        "vs theoretical."
    ),
    "fig8": (
        "Paper: at 8 aggregators cache sync cannot be hidden; one 64_16M "
        "post_write outlier shows jitter sensitivity grows at cache speeds."
    ),
    "fig9": (
        "Paper: IOR charges the last write phase's sync (C(5)=0): peak "
        "≈ 6 GB/s vs 2 GB/s standard — ≈ 3x instead of 10x; TBW stays in "
        "line with the other benchmarks."
    ),
    "fig10": (
        "Paper: the not_hidden_sync term (T_s(4) with C(5)=0) is clearly "
        "visible in every configuration and caps IOR's bandwidth."
    ),
}

SECTION_TITLES = {
    "fig4": "Fig. 4 — coll_perf perceived bandwidth",
    "fig5": "Fig. 5 — coll_perf breakdown (cache enabled)",
    "fig6": "Fig. 6 — coll_perf breakdown (cache disabled)",
    "fig7": "Fig. 7 — Flash-IO perceived bandwidth",
    "fig8": "Fig. 8 — Flash-IO breakdown (cache enabled)",
    "fig9": "Fig. 9 — IOR perceived bandwidth (incl. last phase)",
    "fig10": "Fig. 10 — IOR breakdown (cache enabled)",
}

BANDWIDTH_CAPTIONS = {
    "fig4": "coll_perf, last phase excluded",
    "fig7": "Flash-IO, last phase excluded",
    "fig9": "IOR, last phase included",
}


def parse_args():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("output", nargs="?", default="EXPERIMENTS.md")
    p.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="parallel sweep workers (default: REPRO_JOBS or 1)",
    )
    p.add_argument(
        "--scale",
        type=float,
        default=DEFAULT_SCALE,
        help="data-volume scale (default: %(default)s; 1.0 = paper)",
    )
    p.add_argument(
        "--full-sweep",
        action="store_true",
        help="use the paper's full 4x5 aggregator x buffer grid",
    )
    p.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore and do not write the on-disk result cache",
    )
    p.add_argument(
        "--no-faults",
        action="store_true",
        help="skip the fault-injection matrix section",
    )
    p.add_argument(
        "--fleet",
        action="store_true",
        help="include the multi-job fleet interference section",
    )
    p.add_argument(
        "--no-devices",
        action="store_true",
        help="skip the device-tier (stream/FTL/NVMM) section",
    )
    args = p.parse_args()
    refusal = options.refusal()
    if refusal is not None:
        p.error(refusal)
    if args.jobs is None:
        try:
            args.jobs = default_jobs()
        except ValueError as err:
            p.error(str(err))
    return args


def fault_section(args, scale) -> list[str]:
    """Run the fault matrix (IOR x every scenario) and render its table."""
    cache = (
        ResultCache.disabled(result_cls=faultsweep.FaultExperimentResult)
        if args.no_cache
        else ResultCache(result_cls=faultsweep.FaultExperimentResult)
    )
    runner = SweepRunner(
        jobs=args.jobs,
        cache=cache,
        worker=faultsweep._run_fault_point,
        resolver=faultsweep.resolve_fault_config,
    )
    specs = faultsweep.fault_matrix_specs(benchmarks=("ior",), scale=scale)
    results = runner.run(specs)
    ok = all(r.integrity_ok for r in results)
    recovered = all(r.recovered for r in results if r.crashed)
    out = [
        "## Fault matrix — injected failures vs. fault-free reference\n",
        "**Claim under test.** The E10 cache layer survives SSD I/O errors, "
        "device loss, server stalls, link degradation, and an aggregator "
        "crash mid-flush: every recovered or degraded run must leave each "
        "global file holding exactly what the workload's access tables cover "
        "(`DESIGN.md` §9; `python -m repro.experiments.sweep --faults`).\n",
        "**Measured (this reproduction).**\n",
        "```",
        faultsweep.render_fault_table(results),
        "```",
        "Integrity: "
        + ("every file of every point whole" if ok else "FAILURES PRESENT")
        + "; crash recovery: "
        + ("every crashed job recovered" if recovered else "UNRECOVERED CRASHES")
        + ".\n",
        "",
    ]
    return out


def fleet_section(args, scale) -> list[str]:
    """Run small fleets through the scheduler and render interference stats."""
    cache = (
        ResultCache.disabled(result_cls=fleet.FleetResult)
        if args.no_cache
        else ResultCache(result_cls=fleet.FleetResult)
    )
    runner = SweepRunner(
        jobs=args.jobs,
        cache=cache,
        worker=fleet.runner._run_fleet_point,
        resolver=fleet.resolve_fleet_config,
    )
    specs = [fleet.FleetSpec(fleet_size=n, scale=scale) for n in (16, 64)]
    results = runner.run(specs)
    out = [
        "## Fleet interference — multi-job contention on one shared cluster\n",
        "**Claim under test.** The paper measures one job at a time on a "
        "dedicated testbed; real clusters run many.  The fleet layer admits "
        "a seeded Poisson stream of mixed jobs (ior/coll_perf/flash_io x "
        "cache on/off x 1-4 nodes) through a backfill scheduler onto one "
        "shared machine — same PFS servers, fabric and node SSDs — and "
        "scores each job against its solo run on an idle cluster "
        "(`python -m repro.experiments.sweep --fleet`).  Stretch is "
        "(queue wait + wall) / solo wall; bw.degr is contended / solo "
        "bandwidth (mean over clean jobs).\n",
        "**Measured (this reproduction).**\n",
        "```",
        fleet.render_fleet_table(results),
        "```",
        "The fleet timeline is deterministic: the same seed reproduces the "
        "same per-job rows byte-for-byte on the production and the reference "
        "stack (`tests/fleet/test_fleet.py::TestFleetDeterminism`).\n",
        "",
    ]
    return out


#: Shrunken-but-structurally-real geometry for the flash aging microbench:
#: 4 KiB pages, 64-page blocks, 4 LUNs, 1024 logical pages.  Small enough
#: that a few thousand writes cycle the partition; the timing constants stay
#: at their calibrated values.
AGING_FLASH = FlashConfig(page_size=4096, pages_per_block=64, num_luns=4)
AGING_CAPACITY = 1024 * 4096


def flash_aging_microbench(writes: int, seed: int = 2016) -> dict:
    """A fresh sequential fill, then seeded random single-page overwrites
    (the sync thread's worst case); returns the FTL's exact counters."""
    dev = FlashSSDDevice(
        Simulator(), "aging", flash=AGING_FLASH, capacity_bytes=AGING_CAPACITY
    )
    for page in range(dev.logical_pages):
        dev.service_time(page * dev.page_size, dev.page_size, True)
    fresh_wa = dev.write_amplification
    rng = random.Random(seed)
    for _ in range(writes):
        lpn = rng.randrange(dev.logical_pages)
        dev.service_time(lpn * dev.page_size, dev.page_size, True)
    return {
        "writes": writes,
        "fresh_fill_wa": fresh_wa,
        "write_amplification": dev.write_amplification,
        "host_pages_programmed": dev.host_pages_programmed,
        "gc_pages_programmed": dev.gc_pages_programmed,
        "gc_runs": dev.gc_runs,
        "blocks_erased": dev.blocks_erased,
        "gc_stall_time_s": dev.gc_stall_time,
    }


def device_section(scale) -> list[str]:
    """Run the same IOR point on every device tier and render the comparison.

    Points run through :func:`run_experiment` directly (always live): the
    stream and ftl rows set ``ClusterConfig.ssd_kind``, the nvmm row the
    ``REPRO_CACHE_KIND`` default the cache layer's hints take.  The seeded
    flash-aging microbench adds the FTL's exact counters.
    """
    spec = ExperimentSpec(
        benchmark="ior", aggregators=64, cache_mode="enabled", scale=scale
    )
    disabled = run_experiment(
        ExperimentSpec(
            benchmark="ior", aggregators=64, cache_mode="disabled", scale=scale
        )
    )
    config = resolve_config(spec)
    rows = [
        (kind, run_experiment(spec, config.scaled(ssd_kind=kind)))
        for kind in options.SSD_KINDS
    ]
    saved = os.environ.get("REPRO_CACHE_KIND")
    os.environ["REPRO_CACHE_KIND"] = "nvmm"
    try:
        rows.append(("nvmm", run_experiment(spec)))
    finally:
        if saved is None:
            del os.environ["REPRO_CACHE_KIND"]
        else:
            os.environ["REPRO_CACHE_KIND"] = saved

    aging = flash_aging_microbench(writes=4096)
    table = [
        f"{'tier':<8} {'BW enable':>10} {'TBW':>8} {'close_wait':>11}",
        "-" * 41,
    ]
    for tier, r in rows:
        table.append(
            f"{tier:<8} {r.bw / GiB:>8.2f}Gi {r.tbw / GiB:>6.2f}Gi {r.close_wait:>10.2f}s"
        )
    table.append(
        f"{'(off)':<8} {disabled.bw / GiB:>8.2f}Gi {disabled.tbw / GiB:>6.2f}Gi "
        f"{disabled.close_wait:>10.2f}s"
    )
    return [
        "## Device tier — stream SSD vs FTL-aware flash vs NVMM cache\n",
        "**Claim under test.** The realistic device tier (docs/DEVICES.md) "
        "changes *timings only* — the same IOR point (64 aggregators, cache "
        "enabled) produces the same file bytes on every tier.  On a fresh "
        "full-size scratch partition the FTL row must *match* the stream "
        "row (the calibrated fresh-drive parity: sequential fills cost the "
        "same ≈0.45 GiB/s per SSD on both models); garbage collection and "
        "write amplification appear only once the partition cycles, which "
        "the aging microbench below pins exactly.  The NVMM row runs the "
        "cache as a write-ahead log on persistent memory instead of extent "
        "files on the SSD (`ssd_kind=\"ftl\"`, `REPRO_CACHE_KIND=nvmm`).\n",
        "**Measured (this reproduction).**\n",
        "```",
        "\n".join(table),
        "```",
        f"Flash aging microbench (seeded random overwrite, {aging['writes']} "
        f"writes on a shrunken geometry): write amplification "
        f"{aging['write_amplification']:.2f}, {aging['gc_runs']} GC runs, "
        f"{aging['gc_stall_time_s'] * 1e3:.1f} ms stalled; a fresh sequential "
        f"fill stays at WA = {aging['fresh_fill_wa']:.1f}.  Exact counters "
        "are pinned by `tests/hw/test_flash.py::TestAgingMicrobench`.\n",
        "",
    ]


def main() -> None:
    args = parse_args()
    if args.full_sweep:
        aggs, cbs = figures.FULL_SWEEP
    else:
        aggs, cbs = figures.QUICK_AGGREGATORS, figures.QUICK_CB_SIZES
    scale = args.scale
    cache = ResultCache.disabled() if args.no_cache else None
    runner = SweepRunner(jobs=args.jobs, cache=cache)
    t_start = time.time()
    sections = []

    for fig_key in sorted(figures.FIGURES, key=lambda n: int(n[3:])):
        print(f"{fig_key} ...", flush=True)
        fn, kind, _ = figures.FIGURES[fig_key]
        data = fn(aggs, cbs, scale, runner=runner)
        if kind == "bandwidth":
            table = render_bandwidth_table(BANDWIDTH_CAPTIONS[fig_key], data)
            extra = f"Shape checks: `{shape_checks_bandwidth(data)}`\n"
        else:
            table = render_breakdown_table("per-phase seconds", data)
            extra = ""
        sections.append(f"## {SECTION_TITLES[fig_key]}\n")
        sections.append(f"**Paper result.** {PAPER_NOTES[fig_key]}\n")
        sections.append("**Measured (this reproduction).**\n")
        sections.append("```")
        sections.append(table)
        sections.append("```")
        if extra:
            sections.append(extra)
        sections.append("")

    if not args.no_faults:
        print("fault matrix ...", flush=True)
        sections.extend(fault_section(args, scale))

    if args.fleet:
        print("fleet interference ...", flush=True)
        sections.extend(fleet_section(args, scale))

    if not args.no_devices:
        print("device tier ...", flush=True)
        sections.extend(device_section(scale))

    header = f"""# EXPERIMENTS — paper vs. measured

Generated by `tools/generate_experiments_md.py` in {time.time() - t_start:.0f}s.

Conditions: 512 simulated ranks on 64 nodes (the DEEP-ER testbed of
`repro.config.deep_er_testbed`), four files per run, stripe 4 MB x 4,
512 KiB sync buffer, `scale={scale:g}` of the paper's 32 GB files (the
compute delay scales identically, so hiding behaviour is scale-invariant),
aggregator sweep {list(aggs)}, collective buffers {[c // MiB for c in cbs]} MiB.
Values in GiB/s; the paper reports GB/s (a ~7% unit difference).

Reading guide: `BW Cache Disable` / `BW Cache Enable` / `TBW Cache Enable`
are the paper's three series (direct to BeeGFS; through the SSD cache with
background sync; through the cache with synchronisation ignored).
Breakdown columns are the per-phase seconds of the collective write path
(straggler view, summed over the run's four files).

## Summary of reproduced shapes

1. Cache disabled plateaus near 2 GiB/s for every benchmark (paper: 2 GB/s);
   at 4 MiB collective buffers the simulated plateau dips to ≈1 GiB/s — the
   round-robin stripe phase-locking of aligned file domains is harsher in
   simulation than on real BeeGFS (documented deviation).
2. With 16+ aggregators the cache hides synchronisation completely and wins
   by 5-25x depending on the benchmark (paper: ~10x for coll_perf, ~20x for
   Flash-IO at peak).  Peak simulated numbers run higher than the paper's at
   small scale because fixed software overheads amortise differently; at
   `--scale 1` coll_perf peaks ≈ 25-35 GiB/s (paper ≈ 20 GB/s) and
   Flash-IO ≈ 45-55 GiB/s (paper ≈ 40 GB/s).
3. At 8 aggregators the flush (≈ 95 MB/s per sync thread) exceeds the
   compute window: not_hidden_sync appears and the cached run falls *below*
   the uncached one — the paper's central caveat.
4. The TBW series scales with the aggregator count (more SSDs engaged).
5. IOR, which charges the final phase's sync, caps at ≈ 3x the disabled
   bandwidth (paper: 6 vs 2 GB/s).
6. With the cache, larger collective buffers buy little: small buffers
   suffice, reducing memory pressure (peak pinned bytes scale with
   cb_buffer_size; see `tests/integration/test_shapes.py`).

---
"""
    with open(args.output, "w") as fh:
        fh.write(header + "\n".join(sections))
    stats = runner.cache.stats()
    print(
        f"wrote {args.output} in {time.time() - t_start:.0f}s "
        f"(jobs={runner.jobs} simulated={runner.simulated} "
        f"cache_hits={stats['hits']})",
        file=sys.stderr,
    )


if __name__ == "__main__":
    main()
