#!/usr/bin/env python3
"""Aggregator-count tuning — the paper's central warning.

'Collective write performance can be greatly improved compared to the case
in which only the global parallel file system is used, but can also
decrease if the ratio between aggregators and compute nodes is too small.'

This example sweeps cb_nodes for an IOR-style workload and prints all three
of the paper's measures per configuration: BW with the cache disabled, BW
with the cache enabled (including non-hidden sync), and the theoretical
bandwidth TBW.  At 8 aggregators the flush from too few SSDs cannot hide
inside the compute phase, and the cached run loses to the plain one.

Run:  python examples/aggregator_tuning.py   (1/8 scale; set ``scale = 1.0``
      in ``main`` for the paper's full 32 GiB files)
"""

from repro.experiments.runner import DEFAULT_SCALE, ExperimentSpec, run_experiment
from repro.units import GiB, MiB


def main() -> None:
    scale = DEFAULT_SCALE
    print(f"IOR, 512 ranks, scale={scale:g} (x the paper's 32 GiB files)\n")
    print(f"{'aggregators':>11s}  {'BW disabled':>12s}  {'BW cached':>12s}  "
          f"{'TBW':>8s}  {'non-hidden sync':>15s}")
    for aggregators in (8, 16, 32, 64):
        rows = {}
        for mode in ("disabled", "enabled", "theoretical"):
            spec = ExperimentSpec(
                "ior",
                aggregators=aggregators,
                cb_buffer=16 * MiB,
                cache_mode=mode,
                scale=scale,
                flush_batch_chunks=16,
            )
            rows[mode] = run_experiment(spec)
        flag = " <-- cache LOSES" if rows["enabled"].bw < rows["disabled"].bw else ""
        print(
            f"{aggregators:>11d}  "
            f"{rows['disabled'].bw / GiB:>10.2f}Gi  "
            f"{rows['enabled'].bw / GiB:>10.2f}Gi  "
            f"{rows['theoretical'].tbw / GiB:>6.2f}Gi  "
            f"{rows['enabled'].close_wait:>14.1f}s{flag}"
        )
    print(
        "\nToo few aggregators = too few SSDs and sync threads: the flush"
        "\ntakes longer than the compute phase and leaks into write time."
    )


if __name__ == "__main__":
    main()
