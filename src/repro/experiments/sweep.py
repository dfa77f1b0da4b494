"""Sweep CLI — the one code path CI and humans share.

Examples::

    # quick grid, all benchmarks, 8 workers, warm/populate .repro_cache/
    python -m repro.experiments.sweep --jobs 8

    # one benchmark, paper grid, no cache (force fresh simulation)
    python -m repro.experiments.sweep --benchmark ior --full-sweep --no-cache

    # regenerate the bandwidth figure tables the way CI does
    python -m repro.experiments.sweep --scale 0.03125 \\
        --figures fig4 fig7 fig9 --jobs 4 --output-dir sweep-tables

Without ``--figures`` the CLI runs the raw benchmark × grid × cache-mode
sweep and prints one bandwidth table per benchmark.  With ``--figures`` it
regenerates the named paper figures (through the exact same
:class:`~repro.experiments.parallel.SweepRunner`) and writes each rendered
table to ``--output-dir`` as ``<name>.txt``.

``--faults`` switches to the fault matrix
(:mod:`repro.experiments.faultsweep`): every Table-II hint configuration in
the matrix runs under injected faults and the exit status is non-zero unless
every point's recovered/degraded output is byte-identical to its fault-free
reference — and upholds every global invariant::

    python -m repro.experiments.sweep --faults --jobs 2 --no-cache

``--chaos`` runs seeded *randomized* fault schedules instead
(:mod:`repro.chaos`): each seed draws a schedule, runs it on both stacks
under the invariant monitor, and the first failing seed is greedily
shrunk to a minimal replayable JSON artifact before the sweep exits
non-zero::

    python -m repro.experiments.sweep --chaos --seeds 200 --jobs 4

Paper correspondence: drives the §IV sweeps (aggregators × buffer sizes
× cache modes, plus the fault matrix and the chaos harness).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
import traceback
from pathlib import Path

from repro import chaos, options
from repro import fleet as fleetmod
from repro.experiments import faultsweep, figures
from repro.experiments.parallel import SweepError, SweepRunner
from repro.experiments.report import (
    render_bandwidth_table,
    render_breakdown_table,
    shape_checks_bandwidth,
)
from repro.experiments.resultcache import ResultCache, default_cache
from repro.experiments.runner import BENCHMARKS, DEFAULT_SCALE
from repro.units import MiB


def default_cli_jobs() -> int:
    """CLI worker default: ``REPRO_JOBS`` wins, else all cores but one."""
    return options.get("REPRO_JOBS") or max(1, (os.cpu_count() or 1) - 1)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro.experiments.sweep",
        description="Run paper measurement sweeps in parallel with caching.",
    )
    p.add_argument(
        "--benchmark",
        action="append",
        choices=BENCHMARKS,
        help="benchmark(s) to sweep (repeatable; default: all three)",
    )
    p.add_argument(
        "--figures",
        nargs="+",
        choices=sorted(figures.FIGURES, key=lambda n: int(n[3:])),
        help="regenerate these paper figures instead of a raw sweep",
    )
    p.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="parallel workers (default: REPRO_JOBS or cpu_count - 1)",
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
        "--cache-dir",
        default=None,
        help="result-cache root (default: REPRO_CACHE_DIR or .repro_cache)",
    )
    p.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-point timeout in seconds (parallel mode only)",
    )
    p.add_argument(
        "--output-dir",
        default=None,
        help="write rendered figure tables here (with --figures)",
    )
    p.add_argument(
        "--faults",
        action="store_true",
        help="run the fault-injection matrix and assert end-to-end integrity",
    )
    p.add_argument(
        "--fault-scenario",
        action="append",
        choices=faultsweep.SCENARIOS,
        help="restrict --faults to these scenarios (repeatable; default: all)",
    )
    p.add_argument(
        "--fleet",
        action="store_true",
        help="run the multi-job fleet sweep: many jobs share one simulated "
        "cluster; per-job rows stream into the result cache as jobs complete",
    )
    p.add_argument(
        "--fleet-size",
        type=int,
        action="append",
        help="fleet size(s) to run (with --fleet; repeatable; default: 64)",
    )
    p.add_argument(
        "--fleet-chaos",
        action="store_true",
        help="run seeded fault schedules (infra faults + job-addressed "
        "crashes) against a small fleet with the invariant monitor, per-job "
        "byte-conservation audits, and recovery-SLO assertions on",
    )
    p.add_argument(
        "--crash-probability",
        type=float,
        default=0.35,
        help="per-schedule probability of a job-addressed aggregator crash "
        "(with --fleet-chaos; default: 0.35)",
    )
    p.add_argument(
        "--max-restarts",
        type=int,
        default=2,
        help="restart budget for crashed fleet jobs before they are marked "
        "failed (with --fleet-chaos; default: 2)",
    )
    p.add_argument(
        "--chaos",
        action="store_true",
        help="run seeded randomized fault schedules under the invariant "
        "monitor; failing schedules are shrunk to replayable repro artifacts",
    )
    p.add_argument(
        "--seeds",
        type=int,
        default=25,
        help="number of chaos seeds to run (with --chaos; default: 25)",
    )
    p.add_argument(
        "--base-seed",
        type=int,
        default=0,
        help="first chaos seed (with --chaos; default: 0)",
    )
    p.add_argument("--quiet", action="store_true", help="suppress progress lines")
    return p


def result_cache(args: argparse.Namespace, result_cls=None) -> ResultCache:
    """The cache ``--no-cache``/``--cache-dir`` ask for, else the default."""
    if args.no_cache:
        return ResultCache.disabled(result_cls=result_cls)
    if args.cache_dir:
        return ResultCache(root=args.cache_dir, result_cls=result_cls)
    return default_cache(result_cls=result_cls)


def make_runner(
    args: argparse.Namespace,
    faults: bool = False,
    chaos_mode: bool = False,
    fleet_mode: bool = False,
) -> SweepRunner:
    if fleet_mode:
        result_cls = fleetmod.FleetResult
    elif chaos_mode:
        result_cls = chaos.ChaosTrialResult
    elif faults:
        result_cls = faultsweep.FaultExperimentResult
    else:
        result_cls = None
    progress = None
    if not args.quiet:

        def progress(done, total, spec, source):
            line = (
                f"[{done:3d}/{total}] {spec.benchmark:>9s} {spec.label:>6s} "
                f"{spec.cache_mode:<11s} ({source})"
            )
            print(line, file=sys.stderr, flush=True)

    kwargs = {}
    if fleet_mode:
        kwargs.update(
            worker=fleetmod.runner._run_fleet_point,
            resolver=fleetmod.resolve_fleet_config,
        )
    elif chaos_mode:
        kwargs.update(
            worker=chaos.runner._run_chaos_point,
            resolver=chaos.runner.resolve_chaos_config,
        )
    elif faults:
        kwargs.update(
            worker=faultsweep._run_fault_point,
            resolver=faultsweep.resolve_fault_config,
        )
    cache = result_cache(args, result_cls)
    return SweepRunner(
        jobs=args.jobs, cache=cache, timeout=args.timeout, progress=progress, **kwargs
    )


def grid(args: argparse.Namespace) -> tuple[tuple[int, ...], tuple[int, ...]]:
    if args.full_sweep:
        return figures.FULL_SWEEP
    return figures.QUICK_AGGREGATORS, figures.QUICK_CB_SIZES


def run_figures(args: argparse.Namespace, runner: SweepRunner) -> int:
    aggs, cbs = grid(args)
    out_dir = Path(args.output_dir) if args.output_dir else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    for name in args.figures:
        fn, kind, title = figures.FIGURES[name]
        data = fn(aggs, cbs, args.scale, runner=runner)
        if kind == "bandwidth":
            table = render_bandwidth_table(f"{name}: {title}", data)
            table += f"\nshape checks: {shape_checks_bandwidth(data)}"
        else:
            table = render_breakdown_table(f"{name}: {title}", data)
        if out_dir is not None:
            path = out_dir / f"{name}.txt"
            path.write_text(table + "\n")
            print(f"wrote {path}")
        else:
            print(table)
            print()
    return 0


def run_raw(args: argparse.Namespace, runner: SweepRunner) -> int:
    aggs, cbs = grid(args)
    benchmarks = args.benchmark or list(BENCHMARKS)
    for benchmark in benchmarks:
        include_last = benchmark == "ior"  # the paper's IOR measurement
        data = figures._bandwidth_figure(
            benchmark, include_last, aggs, cbs, args.scale, runner
        )
        print(render_bandwidth_table(f"{benchmark} perceived bandwidth", data))
        print()
    return 0


def run_faults(args: argparse.Namespace, runner: SweepRunner) -> int:
    benchmarks = tuple(args.benchmark or ("ior",))
    scenarios = tuple(args.fault_scenario or faultsweep.SCENARIOS)
    specs = faultsweep.fault_matrix_specs(
        benchmarks=benchmarks, scenarios=scenarios, scale=args.scale
    )
    results = runner.run(specs)
    print(faultsweep.render_fault_table(results))
    bad = [r for r in results if not r.integrity_ok]
    crashes = [r for r in results if r.crashed]
    unrecovered = [r for r in crashes if not r.recovered]
    violated = [r for r in results if r.invariant_violations]
    if bad or unrecovered or violated:
        for r in bad:
            for violation in r.integrity_violations:
                print(
                    f"INTEGRITY FAILURE: {r.spec.benchmark}/{r.spec.scenario}: {violation}",
                    file=sys.stderr,
                )
        for r in unrecovered:
            print(
                f"RECOVERY FAILURE: {r.spec.benchmark}/{r.spec.scenario}: "
                f"crashed job was never recovered",
                file=sys.stderr,
            )
        for r in violated:
            for v in r.invariant_violations:
                print(
                    f"INVARIANT FAILURE: {r.spec.benchmark}/{r.spec.scenario}: {v}",
                    file=sys.stderr,
                )
        return 1
    return 0


def run_fleet_sweep(args: argparse.Namespace, runner: SweepRunner) -> int:
    sizes = args.fleet_size or [64]
    specs = [fleetmod.FleetSpec(fleet_size=n, scale=args.scale) for n in sizes]
    results = runner.run(specs)
    table = fleetmod.render_fleet_table(results)
    if args.output_dir:
        out_dir = Path(args.output_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / "fleet.txt"
        path.write_text(table + "\n")
        print(f"wrote {path}")
    else:
        print(table)
    failed = sum(r.summary["failed"] for r in results)
    if failed:
        print(f"FLEET FAILURE: {failed} job(s) did not finish cleanly", file=sys.stderr)
        return 1
    return 0


def run_fleet_chaos_sweep(args: argparse.Namespace) -> int:
    status = 0
    row_cache = result_cache(args, fleetmod.FleetJobResult)
    for seed in range(args.base_seed, args.base_seed + args.seeds):
        try:
            r = fleetmod.run_fleet_chaos(
                fleet_size=8,
                seed=seed,
                scale=args.scale,
                crash_probability=args.crash_probability,
                max_restarts=args.max_restarts,
                row_cache=row_cache,
            )
        except Exception as exc:  # a trial that raises is a FAIL row
            at = traceback.extract_tb(exc.__traceback__)[-1]
            ok, violations = False, [f"at {at.filename}:{at.lineno} ({at.name})"]
            line = f"fleet-chaos seed {seed}: raised {type(exc).__name__}: {exc} FAIL"
        else:
            ok, violations = r.ok, r.violations
            slo_violations = r.fleet.summary["slo_violations"]
            line = (
                f"fleet-chaos seed {seed}: faults={r.faults_injected} "
                f"jobs={r.statuses} crashed={r.crashed_jobs} "
                f"restarts={r.restarts} slo_violations={slo_violations} "
                f"{'OK' if ok else 'FAIL'}"
            )
        print(line, file=sys.stderr, flush=True)
        if not ok:
            status = 1
            for v in violations[:10]:
                print(f"  {v}", file=sys.stderr)
            # A fleet-chaos schedule is fully determined by (config, seed):
            # the seed + CLI flags are the repro artifact (generate.py
            # guarantees the draw is platform-stable).
            print(
                f"  repro: PYTHONPATH=src python -m repro.experiments.sweep "
                f"--fleet-chaos --base-seed {seed} --seeds 1 "
                f"--scale {args.scale} "
                f"--crash-probability {args.crash_probability} "
                f"--max-restarts {args.max_restarts}",
                file=sys.stderr,
            )
    return status


def run_chaos(args: argparse.Namespace, runner: SweepRunner) -> int:
    benchmarks = tuple(args.benchmark or ("ior",))
    seeds = range(args.base_seed, args.base_seed + args.seeds)
    specs = []
    for benchmark in benchmarks:
        specs.extend(
            chaos.chaos_trial_specs(seeds, scale=args.scale, benchmark=benchmark)
        )
    results = runner.run(specs)
    print(chaos.render_chaos_table(results))
    failing = [r for r in results if not r.ok]
    if not failing:
        return 0
    out_dir = Path(args.output_dir) if args.output_dir else Path(".")
    for r in failing:
        print(
            f"CHAOS FAILURE: seed {r.spec.seed} ({r.spec.cache_mode}/"
            f"{r.spec.flush_flag}): outcome={r.outcome} "
            f"stacks_match={r.stacks_match} violations={len(r.violations)}",
            file=sys.stderr,
        )
        for v in r.violations[:10]:
            print(f"  {v}", file=sys.stderr)
    # Shrink the first failure to a minimal replayable artifact.  The
    # shrinker re-runs trials in-process (seconds at CI scale).
    first = failing[0]
    spec = first.spec
    reason = (
        "; ".join(first.violations[:3])
        or ("stack mismatch: " + ",".join(first.mismatched))
        or first.outcome
    )
    schedule = chaos.runner.schedule_for(spec, chaos.runner.resolve_chaos_config(spec))

    def still_fails(candidate):
        return not chaos.run_chaos_trial(spec.pinned(candidate)).ok

    shrunk = chaos.shrink_schedule(schedule, still_fails)
    artifact = out_dir / f"chaos-repro-seed{spec.seed}.json"
    chaos.write_repro_artifact(
        artifact, spec, shrunk, reason, result=first.to_dict()
    )
    print(
        f"wrote minimized repro ({len(shrunk.faults)} fault(s)): {artifact}\n"
        f"replay with: PYTHONPATH=src python -m repro.chaos.replay {artifact}",
        file=sys.stderr,
    )
    return 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    refusal = options.refusal()
    if refusal is not None:
        parser.error(refusal)
    try:
        for name in options.LIVE:
            options.get(name)  # a bad value fails here by name, not mid-sweep
        if args.jobs is None:
            args.jobs = default_cli_jobs()
    except ValueError as err:
        parser.error(str(err))
    if args.jobs > 1 and (os.cpu_count() or 1) == 1:
        # Measured on a single-CPU host: 410.9s serial vs 485.0s --jobs 4 —
        # pool overhead with no parallelism to pay for it.
        print(
            f"warning: --jobs {args.jobs} on a single-CPU host is usually "
            "slower than --jobs 1 (process-pool overhead, no parallelism)",
            file=sys.stderr,
        )
    runner = make_runner(
        args, faults=args.faults, chaos_mode=args.chaos, fleet_mode=args.fleet
    )
    aggs, cbs = grid(args)
    t0 = time.monotonic()
    try:
        if args.fleet_chaos:
            status = run_fleet_chaos_sweep(args)
        elif args.fleet:
            status = run_fleet_sweep(args, runner)
        elif args.chaos:
            status = run_chaos(args, runner)
        elif args.faults:
            status = run_faults(args, runner)
        elif args.figures:
            status = run_figures(args, runner)
        else:
            status = run_raw(args, runner)
    except SweepError as err:
        print(f"sweep failed: {err}", file=sys.stderr)
        return 1
    wall = time.monotonic() - t0
    stats = runner.cache.stats()
    print(
        f"sweep done in {wall:.1f}s: scale={args.scale:g} grid={list(aggs)}x"
        f"{[c // MiB for c in cbs]}M jobs={runner.jobs} "
        f"simulated={runner.simulated} cache_hits={stats['hits']} "
        f"cache_stores={stats['stores']}",
        file=sys.stderr,
    )
    return status


if __name__ == "__main__":
    sys.exit(main())
