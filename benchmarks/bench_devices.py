"""Device-tier benchmark: flash aging microbench + tier A/B, with receipts.

Writes a machine-readable report to ``BENCH_devices.json``:

1. **Flash aging microbench** — a seeded random-overwrite load (the sync
   thread's worst-case access pattern) against a shrunken
   :class:`~repro.hw.flash.FlashSSDDevice`.  The FTL is deterministic, so
   page/GC counts are exact, CI-comparable quantities; the report enforces
   that steady overwrite produces write amplification > 1 with nonzero GC
   stalls, while a fresh sequential fill stays at exactly WA = 1.0.

2. **Stream identity** — the quick IOR grid with ``REPRO_SSD`` unset vs
   ``=stream``: every field *including* the diagnostic event count must be
   byte-identical.  The FTL tier is strictly opt-in; this is the gate that
   keeps the default results comparable with every pre-FTL baseline.

3. **FTL stack A/B** — the grid under ``REPRO_SSD=ftl`` on the production
   stack vs the reference stack (``run_experiment(reference=True)``):
   byte-identical excluding event counts.  The FTL runs synchronously
   inside ``service_time``, so production's fused device operations must
   see the same GC stalls the reference's per-chunk ones do.

4. **NVMM stack A/B** — the cache-enabled grid under
   ``REPRO_CACHE_KIND=nvmm`` on both stacks, same contract, plus the
   extent-vs-NVMM bandwidth comparison for the report.

Exit status is non-zero on any A/B divergence or missed aging target;
``benchmarks/check_bench.py --devices`` compares the written report
against the ``device_tier`` section of ``baseline_quick.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_devices.py --quick
    PYTHONPATH=src python benchmarks/bench_devices.py --full --out BENCH_devices.json
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time

from repro.config import FlashConfig
from repro.experiments.runner import ExperimentSpec, run_experiment
from repro.hw.flash import FlashSSDDevice
from repro.sim.core import Simulator
from repro.units import GiB

BENCH_SCALE = 0.03125

#: Shrunken-but-structurally-real geometry for the aging microbench: 4 KiB
#: pages, 64-page blocks, 4 LUNs.  Small enough that a few thousand writes
#: cycle the partition; the timing constants stay at their calibrated values.
AGING_FLASH = FlashConfig(page_size=4096, pages_per_block=64, num_luns=4)
AGING_CAPACITY = 1024 * 4096  # 1024 logical pages


def flash_aging_microbench(writes: int, seed: int = 2016) -> dict:
    """Seeded random overwrites; returns exact FTL counters + wall time."""
    dev = FlashSSDDevice(
        Simulator(), "bench", flash=AGING_FLASH, capacity_bytes=AGING_CAPACITY
    )
    # Fresh sequential fill first: must not amplify.
    for page in range(dev.logical_pages):
        dev.service_time(page * dev.page_size, dev.page_size, True)
    fresh_wa = dev.write_amplification
    rng = random.Random(seed)
    t0 = time.perf_counter()
    busy = 0.0
    for _ in range(writes):
        lpn = rng.randrange(dev.logical_pages)
        busy += dev.service_time(lpn * dev.page_size, dev.page_size, True)
    wall = time.perf_counter() - t0
    return {
        "writes": writes,
        "seed": seed,
        "fresh_fill_wa": fresh_wa,
        "write_amplification": dev.write_amplification,
        "host_pages_programmed": dev.host_pages_programmed,
        "gc_pages_programmed": dev.gc_pages_programmed,
        "gc_runs": dev.gc_runs,
        "blocks_erased": dev.blocks_erased,
        "gc_stall_time_s": dev.gc_stall_time,
        "device_busy_s": busy,
        "wall_s": wall,
        "writes_per_sec": writes / wall if wall else 0.0,
    }


def grid_specs(quick: bool) -> list[ExperimentSpec]:
    aggs = (16,) if quick else (16, 64)
    return [
        ExperimentSpec(
            benchmark="ior", aggregators=a, cache_mode=m, scale=BENCH_SCALE
        )
        for a in aggs
        for m in ("enabled", "disabled")
    ]


def run_grid(specs, env: dict[str, str], reference: bool = False) -> list[dict]:
    saved = {k: os.environ.get(k) for k in env}
    os.environ.update(env)
    try:
        return [run_experiment(spec, reference=reference).to_dict() for spec in specs]
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v


def without_events(rows: list[dict]) -> list[dict]:
    return [{k: v for k, v in r.items() if k != "events"} for r in rows]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python benchmarks/bench_devices.py",
        description=__doc__.splitlines()[0],
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--quick", action="store_true", help="CI-sized run")
    mode.add_argument("--full", action="store_true", help="larger grid + aging run")
    parser.add_argument(
        "--out", default="BENCH_devices.json", help="report path (default: %(default)s)"
    )
    args = parser.parse_args(argv)
    quick = args.quick or not args.full
    failures: list[str] = []

    # Results must come from live simulation, not the memo.
    os.environ["REPRO_CACHE"] = "0"

    # -- 1. flash aging ----------------------------------------------------------
    aging = flash_aging_microbench(writes=4096 if quick else 65536)
    if aging["fresh_fill_wa"] != 1.0:
        failures.append(f"fresh fill amplified: WA {aging['fresh_fill_wa']:.3f} != 1.0")
    if aging["write_amplification"] <= 1.05:
        failures.append(
            f"aged WA {aging['write_amplification']:.3f} <= 1.05: GC never engaged"
        )
    if aging["gc_runs"] == 0 or aging["gc_stall_time_s"] <= 0.0:
        failures.append("aging run produced no GC activity")
    print(
        f"flash aging: WA {aging['write_amplification']:.2f}, "
        f"{aging['gc_runs']} GC runs, {aging['gc_stall_time_s'] * 1e3:.1f} ms stalled "
        f"({aging['writes']} writes)"
    )

    # -- 2. stream identity ------------------------------------------------------
    specs = grid_specs(quick)
    implicit = run_grid(specs, {})
    explicit = run_grid(specs, {"REPRO_SSD": "stream"})
    stream_ok = implicit == explicit
    if not stream_ok:
        failures.append("REPRO_SSD=stream diverged from the unset default")
    print(f"stream identity: {'ok' if stream_ok else 'DIVERGED'}")

    # -- 3/4. tier stack A/B -------------------------------------------------------
    tiers = {}
    for name, env in (
        ("ftl", {"REPRO_SSD": "ftl"}),
        ("nvmm", {"REPRO_CACHE_KIND": "nvmm"}),
    ):
        production = run_grid(specs, env)
        reference = run_grid(specs, env, reference=True)
        identical = without_events(production) == without_events(reference)
        if not identical:
            failures.append(f"{name}: the stacks diverged beyond event counts")
        tiers[name] = {
            "byte_identical_excluding_events": identical,
            "events_production": sum(r["events"] for r in production),
            "events_reference": sum(r["events"] for r in reference),
        }
        print(
            f"{name} stack A/B: {'ok' if identical else 'DIVERGED'} "
            f"(events {tiers[name]['events_production']} production / "
            f"{tiers[name]['events_reference']} reference)"
        )

    # Extent-vs-NVMM perceived bandwidth on the cache-enabled points, for
    # the report (no direction asserted: with an async sync thread the WAL
    # mostly moves *flush* time, not perceived write time).
    enabled = [i for i, s in enumerate(specs) if s.cache_mode == "enabled"]
    nvmm_rows = run_grid(specs, {"REPRO_CACHE_KIND": "nvmm"})
    tier_bw = {
        "extent_bw_gib": [implicit[i]["bw"] / GiB for i in enabled],
        "nvmm_bw_gib": [nvmm_rows[i]["bw"] / GiB for i in enabled],
    }

    report = {
        "mode": "quick" if quick else "full",
        "flash_aging": aging,
        "stream_identity": {"ok": stream_ok, "points": len(specs)},
        "tier_stack_ab": tiers,
        "tier_bandwidth": tier_bw,
        "failures": failures,
        "ok": not failures,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    print(f"report written to {args.out}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
