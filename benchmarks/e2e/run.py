"""The repo benchmark: host cost of regenerating the paper's evaluation.

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
    PYTHONPATH=src python -m benchmarks.e2e.run [--workload W] [--trace] [--smoke]

One run measures one workload, closed loop, one client, one thread.  This
parent imports nothing from ``repro``: it starts children strictly one at a
time under a pinned environment (``workloads.py`` for passes, ``probes.py``
for the layer probes), folds their samples into the metrics that
``BENCHMARK.json`` names, checks the outputs, and prints every metric by
name with its unit.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.

How a run is made up, and why CPU time and counts instead of wall time and
a reference kernel, is in README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT = os.path.join(HERE, "out")

PASSES_MIN = 4  # fewer passes and the per-unit minimum stops being one
PASSES_MAX = 6
SETUP_SAMPLES = 6
GiB = 1 << 30


def child_env(cache_dir: str) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        REPRO_CACHE="0",
        REPRO_CACHE_DIR=cache_dir,  # throwaway: the repo's .repro_cache is never used
        PYTHONPATH=os.pathsep.join((os.path.join(ROOT, "src"), ROOT)),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
    )
    return env


def spawn(env: dict, module: str, *args: str) -> dict:
    """Run one child to completion and return the JSON line it printed."""
    proc = subprocess.run(
        [sys.executable, "-m", f"benchmarks.e2e.{module}", *args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{module} {' '.join(args)} exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def cache_signature() -> tuple:
    """Changes if anything under the repo's ``.repro_cache/`` is touched."""
    top = os.path.join(ROOT, ".repro_cache")
    entries = 0
    newest = 0
    for path, dirs, files in os.walk(top):
        entries += len(dirs) + len(files)
        newest = max(newest, os.stat(path).st_mtime_ns)
    return os.path.isdir(top), entries, newest


def pass_summary(sample: dict) -> dict:
    """What must not differ between the passes of one run."""
    bws = [op["bw"] for op in sample["ops"] if op["ok"]]
    geomean = math.exp(sum(map(math.log, bws)) / len(bws)) if bws else 0.0
    return {
        "digests": [op["digest"] for op in sample["ops"]],
        "sim_bw_gib_s": geomean / GiB,
        "events": sample["events"],
    }


def run_workload(workload, seed, seconds, trace, smoke) -> dict:
    """One run: children, then metrics; ``correct`` is the outputs' verdict."""
    cache_dir = os.path.join(OUT, f"cache-{os.getpid()}")
    os.makedirs(cache_dir, exist_ok=True)
    env = child_env(cache_dir)
    cache_before = cache_signature()
    wall0 = time.perf_counter()

    def sample(role: str, *extra: str) -> dict:
        args = ["--role", role, "--workload", workload, "--seed", str(seed), *extra]
        if smoke:
            args.append("--smoke")
        return spawn(env, "workloads", *args, "--spawned", repr(time.time()))

    try:
        # Untraced pass children: every end-to-end timing comes from these.
        # A traced run needs them only as the denominator of its overhead.
        passes: list[dict] = []
        floor = 2 if smoke else PASSES_MIN
        most = floor if trace or smoke else PASSES_MAX
        measured = 0.0
        while len(passes) < floor or (len(passes) < most and measured < seconds):
            passes.append(sample("pass"))
            measured += sum(u["wall_s"] for u in passes[-1]["units"])
        spans = os.path.join(OUT, f"trace_{workload}.json")
        counted = sample("counted", *(("--spans", spans) if trace else ()))
        samples = [*passes, counted]
        while not trace and not smoke and len(samples) < SETUP_SAMPLES:
            samples.append(sample("setup"))
        probes = {}
        if trace:
            probes = spawn(env, "probes", str(seed), *(["--smoke"] if smoke else []))
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    # Determinism guard: a simulated quantity that moves between passes of
    # one run, or an environment that leaked, voids the whole run.
    problems: list[str] = []
    summaries = [pass_summary(s) for s in (*passes, counted)]
    for key in ("digests", "sim_bw_gib_s", "events"):
        if any(s[key] != summaries[0][key] for s in summaries):
            problems.append(f"{key} differ between passes")
    leaked = sorted({k for s in samples for k in s["repro_env"]})
    if leaked:
        problems.append(f"children saw {leaked}")
    if cache_signature() != cache_before:
        problems.append(".repro_cache/ was touched")
    labels = [u["label"] for u in passes[0]["units"]]
    if any([u["label"] for u in p["units"]] != labels for p in passes):
        problems.append("unit boundaries differ between passes")

    ops = [op for s in (*passes, counted) for op in s["ops"]]
    attempted = len(ops)
    failed = attempted if problems else sum(not op["ok"] for op in ops)

    # Seconds at reference speed, child by child (each child's ``speed``
    # comes from the reference slices bracketing its own pass: the box
    # changes speed inside a run).  Then the per-unit minimum over the
    # passes, then the sum: a burst of noise has to hit the same unit in
    # every pass to move it.
    units = range(len(labels))
    unit_min = [min(p["speed"] * p["units"][i]["cpu_s"] for p in passes) for i in units]
    host_cpu_s = sum(unit_min)
    layer_calls = [v for k, v in counted["counted"].items() if k.endswith(".calls_m")]
    metrics = {
        "setup_s": statistics.median(s["speed"] * s["setup_cpu_s"] for s in samples),
        "host_cpu_s": host_cpu_s,
        "host_calls_m": sum(layer_calls),
        "peak_rss_mib": statistics.median(p["max_rss_kib"] for p in passes) / 1024,
        "ok_share": (attempted - failed) / attempted,
        "sim_bw_gib_s": summaries[0]["sim_bw_gib_s"],
    }
    if trace:
        events = summaries[0]["events"]
        mode_cpu = dict.fromkeys(("disabled", "enabled", "theoretical"), 0.0)
        for unit, cpu in zip(passes[0]["units"], unit_min):
            if "mode" in unit:
                mode_cpu[unit["mode"]] += cpu
        counts = counted["counts"]
        raw_pass = statistics.median(p["pass_cpu_s"] for p in passes)
        metrics = {
            **counted["counted"],
            **probes,
            "sim.events": events,
            "sim.events_per_cpu_s": events / host_cpu_s,
            "romio.write_time_sim_s": counts.get("write_time_sim_s", 0.0),
            "romio.close_wait_sim_s": counts.get("close_wait_sim_s", 0.0),
            "fleet.backfilled": counts.get("backfilled", 0),
            "fleet.queue_wait_mean_sim_s": counts.get("queue_wait_mean_sim_s", 0.0),
            "fleet.stretch_p95": counts.get("stretch_p95", 0.0),
            **{f"mode.{mode}_cpu_s": cpu for mode, cpu in mode_cpu.items()},
            "trace.overhead_x": counted["pass_cpu_s"] / raw_pass,
        }

    def raw_min(key: str) -> float:
        return sum(min(p["units"][i][key] for p in passes) for i in units)

    return {
        "workload": workload,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "problems": problems,
        # Enough to tell a noisy run from a slow one.
        "diagnostics": {
            "seed": seed,
            "passes": len(passes),
            "run_wall_s": time.perf_counter() - wall0,
            "host_wall_s": raw_min("wall_s"),
            "host_cpu_raw_s": raw_min("cpu_s"),
            "reference_s": [min(s["ref_s"]) for s in samples],
            "pass_cpu_s": [p["pass_cpu_s"] for p in passes],
            "counted_cpu_s": counted["pass_cpu_s"],
            "setup_cpu_s": [s["setup_cpu_s"] for s in samples],
            "setup_wall_s": [s["setup_wall_s"] for s in samples],
            "unit_labels": labels,
            "unit_min_cpu_s": unit_min,
        },
    }


def report(result: dict, specs: list[dict]) -> None:
    """Every metric by name with its unit, then the contract's JSON line."""
    measured = result["metrics"]
    metrics = {}
    print(f"# {result['workload']}  ({result['diagnostics']['passes']} passes)")
    for spec in specs:
        name = spec["name"]
        if name not in measured:
            raise RuntimeError(f"{name} is in BENCHMARK.json but was not measured")
        metrics[name] = {"value": measured[name], "unit": spec["unit"]}
        print(f"{name:38s} {measured[name]:>18.6f} {spec['unit']}")
    for problem in result["problems"]:
        print(f"FAILED: {problem}")
    print(json.dumps({"diagnostics": result["diagnostics"]}))
    sys.stdout.flush()
    line = {k: result[k] for k in ("correct", "attempted", "failed")}
    print(json.dumps({**line, "metrics": metrics}))


def noise(workloads, bench, seed, seconds, runs) -> int:
    """Two interleaved sets (A B B A ...) of the same code; do they agree?"""
    sets: dict = {"A": {}, "B": {}}
    for i in range(runs):
        which = "AB"[(i + 1) // 2 % 2]
        for workload in workloads:
            # Pairs share a seed; seeds differ along a set as the driver's do.
            result = run_workload(workload, seed + i // 2, seconds, False, False)
            if not result["correct"]:
                print(f"{workload}: run {i} failed {result['problems']}")
                return 1
            for name, value in result["metrics"].items():
                sets[which].setdefault((workload, name), []).append(value)
            print(f"run {i} set {which} {workload} done", file=sys.stderr)
    table = []
    worst = 0
    for spec in bench["end_to_end"]:
        for workload in workloads:
            key = (workload, spec["name"])
            row = {"workload": workload, "metric": spec["name"], "bound": spec["bound"]}
            for which in "AB":
                values = sets[which][key]
                q1, median, q3 = statistics.quantiles(values, n=4)
                row[which] = {"median": median, "q1": q1, "q3": q3, "n": len(values)}
                row[f"spread_{which}"] = (q3 - q1) / median
            row["disagreement"] = abs(row["A"]["median"] / row["B"]["median"] - 1)
            row["ok"] = row["disagreement"] <= spec["bound"] / 2
            worst += not row["ok"]
            table.append(row)
            print(
                f"{workload:18s} {spec['name']:14s} A {row['A']['median']:.5g} "
                f"B {row['B']['median']:.5g} disagree {row['disagreement']:.4f} "
                f"spread {row['spread_A']:.4f}/{row['spread_B']:.4f} "
                f"bound {spec['bound']} {'ok' if row['ok'] else 'TOO NOISY'}"
            )
    summary = {"runs": runs, "seed": seed, "seconds": seconds, "rows": table}
    with open(os.path.join(OUT, "noise.json"), "w") as fh:
        json.dump(summary, fh, indent=1)
    return 1 if worst else 0


def main(argv=None) -> int:
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("benchmarks/e2e: no src/repro here; nothing to measure", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names, help="default: each in turn")
    ap.add_argument("--seed", type=int, default=2016)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0)
    ap.add_argument("--smoke", action="store_true", help="<= 2 ops, 2 passes")
    ap.add_argument("--noise", type=int, metavar="N", help="N runs as two sets")
    args = ap.parse_args(argv)
    workloads = [args.workload] if args.workload else names
    if args.noise:
        return noise(workloads, bench, args.seed, args.seconds, args.noise)
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    correct = True
    for workload in workloads:
        result = run_workload(workload, args.seed, args.seconds, args.trace, args.smoke)
        report(result, specs)
        correct = correct and result["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
