"""Child side of the benchmark: one fresh interpreter, one pass.

``run.py`` starts this file once per sample and reads one JSON line back.
A child sets up (imports, ``make_inputs(seed)``, one warm-up op at a scale
no timed op uses), freezes the heap, then runs the workload's ops once in
fixed order, timing each *unit* with ``time.process_time()``.  In-process
memos are therefore cold in every pass, as they are in every sweep worker
a user starts.  Slices of the speed reference (``reference.py``) bracket the
pass; the child reports its timings' scale to reference speed with them.

Roles: ``setup`` stops after set-up; ``pass`` is the untraced timed pass
every end-to-end number comes from; ``counted`` runs the same pass under
``cProfile`` with a ``SimProfiler`` attached and every ``Machine``'s
ledgers harvested (and spans kept with ``--spans``) for the per-layer
table.

The seed feeds ``ExperimentSpec.seed`` / ``FleetSpec.seed`` / the fault
specs and nothing else; ``repro`` receives only the generated inputs.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import sys
import time

from .reference import NOMINAL_S, slices as reference_slices
from .trace import LAYERS, Spans, layer_table

MiB = 1 << 20
MODES = ("disabled", "enabled", "theoretical")
REFERENCE_SLICES = 2  # before and again after the pass, bracketing it in time


class Pass:
    """What one pass records: CPU time per unit, outcome per op, counts."""

    def __init__(self, spans: Spans):
        self.spans = spans
        self.units: list[dict] = []
        self.ops: list[dict] = []
        self.events = 0  # kernel events the public results report
        self.counts: dict[str, float] = {}  # other public result fields, summed
        self._open = None

    def start_unit(self, label: str, **tags) -> None:
        self.spans.begin("unit", label=label)
        self._open = (label, tags, time.perf_counter(), time.process_time())

    def end_unit(self) -> None:
        cpu, wall = time.process_time(), time.perf_counter()
        label, tags, wall0, cpu0 = self._open
        self.units.append(
            {"label": label, "cpu_s": cpu - cpu0, "wall_s": wall - wall0, **tags}
        )
        self.spans.end()

    def unit_call(self, label: str, tags: dict, fn, *args, **kwargs):
        """One public call as one timed unit; None if it raised."""
        self.start_unit(label, **tags)
        try:
            with self.spans.span(f"call:{fn.__name__}"):
                return fn(*args, **kwargs)
        except Exception as exc:
            self.failed(label, exc)
            return None
        finally:
            self.end_unit()

    def op(self, label: str, ok: bool, result: dict | None = None, bw: float = 0.0):
        """Record an op; ``result`` is its JSON-safe dict minus diagnostics."""
        digest = None
        if result is not None:
            blob = json.dumps(result, sort_keys=True, default=str)
            digest = hashlib.sha256(blob.encode()).hexdigest()
        ok = bool(ok) and math.isfinite(bw) and bw > 0.0
        self.ops.append({"label": label, "ok": ok, "digest": digest, "bw": bw})

    def failed(self, label: str, exc: Exception) -> None:
        """An op that raised counts as attempted and failed."""
        print(f"op {label} raised {exc!r}", file=sys.stderr)
        self.op(label, False)

    def count(self, **counts) -> None:
        for key, value in counts.items():
            self.counts[key] = self.counts.get(key, 0) + value


class Grid:
    """``run_experiment`` over a fixed list of sweep points, one unit each."""

    def __init__(self, points, num_files):
        self.points = points  # (benchmark, aggregators, cb MiB, mode, scale)
        self.num_files = num_files

    def make_inputs(self, seed: int, smoke: bool):
        from repro.experiments.runner import ExperimentSpec

        points = self.points[:2] if smoke else self.points
        return [
            ExperimentSpec(
                bench,
                aggregators=aggs,
                cb_buffer=cb * MiB,
                cache_mode=mode,
                num_files=self.num_files,
                scale=scale,
                seed=seed,
            )
            for bench, aggs, cb, mode, scale in points
        ]

    def warm_up(self, seed: int) -> None:
        from repro.experiments.runner import ExperimentSpec, run_experiment

        # coll_perf at 64 KiB per rank: every layer runs once, no timed
        # point shares its scale, and IOR's workload memo stays cold.
        spec = ExperimentSpec(
            "coll_perf", 16, 8 * MiB, "enabled", num_files=2, scale=0.001, seed=seed
        )
        run_experiment(spec)

    def run(self, specs, rec: Pass, profiler) -> None:
        from repro.experiments.runner import run_experiment

        results = {}
        for spec in specs:
            label = f"{spec.benchmark}/{spec.label}/{spec.cache_mode}"
            tags = {"mode": spec.cache_mode}
            result = rec.unit_call(label, tags, run_experiment, spec, profiler=profiler)
            if result is None:
                continue
            results[(spec.benchmark, spec.label, spec.cache_mode)] = result
            # IOR reports bandwidth including the last phase's sync; the
            # other two exclude it (Eq. 2), as the paper's figures do.
            bw = result.bw_incl_last if spec.benchmark == "ior" else result.bw
            # flush_none (the theoretical mode) never persists.
            persisted = spec.num_files * result.file_size
            ok = result.bytes_persisted == (
                0 if spec.cache_mode == "theoretical" else persisted
            )
            enabled = results.get((spec.benchmark, spec.label, "enabled"))
            if spec.cache_mode == "theoretical" and enabled is not None:
                ok = ok and result.bw >= enabled.bw
            fields = result.to_dict()
            rec.events += fields.pop("events")
            rec.op(label, ok, fields, bw)
            rec.count(
                write_time_sim_s=result.write_time, close_wait_sim_s=result.close_wait
            )


class Fleet:
    """One ``run_fleet``; every job is an op, every Nth completion a unit."""

    UNITS = 8

    def __init__(self, fleet_size, scale):
        self.fleet_size = fleet_size
        self.scale = scale

    def make_inputs(self, seed: int, smoke: bool):
        from repro.fleet.runner import FleetSpec

        size = 2 if smoke else self.fleet_size
        return FleetSpec(fleet_size=size, scale=self.scale, seed=seed)

    def warm_up(self, seed: int) -> None:
        from repro.fleet.runner import FleetSpec, run_fleet

        run_fleet(FleetSpec(fleet_size=2, scale=self.scale * 2, seed=seed))

    def run(self, spec, rec: Pass, profiler) -> None:
        from repro.fleet.chaos import audit_job_conservation
        from repro.fleet.runner import run_fleet

        size = spec.fleet_size
        every = max(1, size // self.UNITS)
        finished = []

        def next_unit():
            done = len(finished)
            rec.start_unit(f"jobs{done}-{min(size, done + every) - 1}")

        def on_complete(job, view, row):
            # The public per-job hook closes a unit at every Nth completion,
            # so unit boundaries are the same jobs in every pass.
            finished.append((view.job_label, view))
            if len(finished) % every == 0 and len(finished) < size:
                rec.end_unit()
                next_unit()

        result = None
        with rec.spans.span("call:run_fleet"):
            next_unit()
            try:
                result = run_fleet(spec, on_complete=on_complete)
            except Exception as exc:
                for job_id in range(size):
                    rec.failed(f"j{job_id}", exc)
            rec.end_unit()
        if result is None:
            return
        audits = {
            label: audit_job_conservation(label, view.io_stats, view.recovery.entries())
            for label, view in finished
        }
        for row in result.jobs:
            label = f"j{row.job_id}"
            ok = row.status == "ok" and not audits.get(label, ["never completed"])
            rec.op(label, ok, row.to_dict(), row.bandwidth)
        rec.events += result.events
        rec.count(
            backfilled=result.backfilled,
            queue_wait_mean_sim_s=result.summary["queue_wait_mean"],
            stretch_p95=result.summary["stretch_p95"],
        )


class Faults:
    """``run_fault_experiment`` over the fault matrix: real payload bytes."""

    def __init__(self, scale):
        self.scale = scale

    def make_inputs(self, seed: int, smoke: bool):
        from repro.experiments.faultsweep import fault_matrix_specs

        specs = fault_matrix_specs(
            benchmarks=("ior", "flash_io", "coll_perf"), scale=self.scale, seed=seed
        )
        # Smoke keeps one fault-free and one crashing point.
        return [specs[0], specs[7]] if smoke else specs

    def warm_up(self, seed: int) -> None:
        from repro.experiments import faultsweep

        (spec,) = faultsweep.fault_matrix_specs(
            benchmarks=("coll_perf",),
            scenarios=("baseline",),
            scale=self.scale * 2,
            seed=seed,
        )
        faultsweep.run_fault_experiment(spec)

    def run(self, specs, rec: Pass, profiler) -> None:
        from repro.experiments.faultsweep import run_fault_experiment

        for spec in specs:
            label = f"{spec.benchmark}/{spec.scenario}"
            result = rec.unit_call(label, {}, run_fault_experiment, spec)
            if result is None:
                continue
            ok = (
                result.integrity_ok
                and not result.invariant_violations
                and (result.recovered or not result.crashed)
            )
            fields = result.to_dict()
            rec.events += fields.pop("events")
            # A crashed job has no perceived bandwidth of its own; its
            # fault-free twin's stands in so the mean stays over all ops.
            bw = result.bw_ref if result.crashed else result.bw_faulted
            rec.op(label, ok, fields, bw)


#: Sizes are fixed here and recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "ior_grid6": Grid(
        [("ior", aggs, 16, mode, 0.125) for aggs in (8, 64) for mode in MODES],
        num_files=3,
    ),
    "noncontig_grid4": Grid(
        [("coll_perf", 64, 16, mode, 0.03125) for mode in MODES]
        + [("flash_io", 64, 16, "enabled", 0.0125)],
        num_files=2,
    ),
    "fleet_80": Fleet(fleet_size=80, scale=0.03125),
    "faults_payload24": Faults(scale=0.5),
}


class Ledgers:
    """Counters read off every ``Machine`` the counted pass builds.

    ``run_fault_experiment`` and ``run_fleet``'s solo references expose no
    profiler or machine hook, so the counted child wraps ``Machine.__init__``
    to see each machine as it is built; pass children never do.
    """

    def __init__(self, profiler):
        from repro.machine import Machine

        self.profiler = profiler
        self.machines: list = []
        init = Machine.__init__

        def capturing_init(machine, *args, **kwargs):
            init(machine, *args, **kwargs)
            if machine.sim.profiler is None:
                machine.sim.profiler = profiler
            self.machines.append(machine)

        Machine.__init__ = capturing_init

    def metrics(self) -> dict:
        out = dict.fromkeys(
            (
                "net.recomputes",
                "net.flows_rerated",
                "pfs.bytes_persisted",
                "pfs.rpcs",
                "cache.retries",
                "cache.requeues",
                "faults.injected",
                "faults.bytes_replayed",
                "faults.recovery_time_sim_s",
            ),
            0,
        )
        hits = misses = pinned = 0
        for m in self.machines:
            fabric = m.fabric
            out["net.recomputes"] += fabric.recomputes
            out["net.flows_rerated"] += fabric.recompute_flows
            hits += fabric.rate_cache_hits
            misses += fabric.rate_cache_misses
            out["pfs.bytes_persisted"] += m.pfs.bytes_persisted
            out["pfs.rpcs"] += sum(s.rpcs_served for s in m.pfs.servers)
            out["cache.retries"] += m.cache_stats["retries"]
            out["cache.requeues"] += m.cache_stats["requeues"]
            if m.faults is not None:
                out["faults.injected"] += m.faults.injected
            out["faults.bytes_replayed"] += m.io_stats["bytes_replayed"]
            out["faults.recovery_time_sim_s"] += m.recovery.stats()["recovery_time"]
            pinned = max(pinned, max(n.peak_pinned_bytes for n in m.nodes))
        counters = self.profiler.counters
        pooled = counters.get("sim.event_pool_reused", 0)
        allocated = counters.get("sim.event_pool_alloc", 0)
        out["sim.event_pool_reuse_share"] = pooled / max(1, pooled + allocated)
        out["sim.heap_peak"] = self.profiler.heap_peak
        out["net.rate_cache_hit_share"] = hits / max(1, hits + misses)
        out["hw.peak_pinned_mib"] = pinned / MiB
        return out


def layer_metrics(profile) -> dict:
    """``L.calls_m``, ``L.self_s`` and ``L.self_share`` for every layer."""
    table = layer_table(profile.getstats())
    host_self = sum(table[layer]["self_s"] for layer in LAYERS)
    out = {}
    for layer in LAYERS:
        row = table[layer]
        out[f"{layer}.calls_m"] = row["calls"] / 1e6
        out[f"{layer}.self_s"] = row["self_s"]
        out[f"{layer}.self_share"] = row["self_s"] / host_self
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--role", choices=("setup", "pass", "counted"), required=True)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--spawned", type=float, required=True, help="parent's time.time()")
    ap.add_argument("--spans", help="write a Chrome trace of the counted pass here")
    args = ap.parse_args(argv)

    spans = Spans(enabled=args.spans is not None)
    spans.begin("run", role=args.role, seed=args.seed)
    workload = WORKLOADS[args.workload]
    with spans.span("setup"):
        inputs = workload.make_inputs(args.seed, args.smoke)
        workload.warm_up(args.seed)
        gc.collect()
        gc.freeze()
    out = {
        "role": args.role,
        # Interpreter start to first timed op; process_time counts from exec.
        "setup_cpu_s": time.process_time(),
        "setup_wall_s": time.time() - args.spawned,
        # Any switch but the two the parent pins selects an implementation.
        "repro_env": sorted(
            k
            for k in os.environ
            if k.startswith("REPRO_") and k not in ("REPRO_CACHE", "REPRO_CACHE_DIR")
        ),
    }
    out["ref_s"] = reference_slices(REFERENCE_SLICES)
    if args.role != "setup":
        rec = Pass(spans)
        profile = profiler = ledgers = None
        if args.role == "counted":
            import cProfile

            from repro.sim.profile import SimProfiler

            profiler = SimProfiler()
            ledgers = Ledgers(profiler)
            profile = cProfile.Profile()
        spans.begin("workload", workload=args.workload)
        spans.begin("pass")
        cpu0 = time.process_time()
        if profile is not None:
            profile.enable()
        workload.run(inputs, rec, profiler)
        if profile is not None:
            profile.disable()
        out["pass_cpu_s"] = time.process_time() - cpu0
        spans.end()
        spans.end()
        out.update(units=rec.units, ops=rec.ops, events=rec.events, counts=rec.counts)
        if profile is not None:
            out["counted"] = {**layer_metrics(profile), **ledgers.metrics()}
    out["max_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if args.role != "counted":  # its pass is never timed
        out["ref_s"] += reference_slices(REFERENCE_SLICES)
    # The fastest bracketing slice says how fast the machine was for this
    # child; its CPU seconds times ``speed`` are seconds at reference speed.
    out["speed"] = NOMINAL_S / min(out["ref_s"])
    spans.end()
    if args.spans:
        spans.write_chrome_trace(args.spans, out.get("counted", {}))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
