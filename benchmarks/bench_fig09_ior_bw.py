"""Fig. 9 — IOR perceived write bandwidth, INCLUDING the last write phase.

Paper: unlike coll_perf and Flash-IO, IOR's figure charges the non-hidden
synchronisation of the fourth (final) write phase — C(5)=0 — capping the
peak at ≈6 GB/s versus ≈2 GB/s standard (a ≈3× win instead of 10×); the
theoretical series stays aligned with the other two benchmarks.
"""

from benchmarks.conftest import run_once
from repro.experiments.figures import fig9_ior_bandwidth
from repro.experiments.report import render_bandwidth_table


def test_fig9_ior_bandwidth(benchmark, figure_sweep):
    aggs, cbs, scale = figure_sweep
    data = run_once(benchmark, lambda: fig9_ior_bandwidth(aggs, cbs, scale))
    print()
    print(render_bandwidth_table("Fig. 9: IOR perceived bandwidth (incl. last phase)", data))
    for label, row in data.items():
        agg = int(label.split("_")[0])
        # the last phase caps IOR well below the theoretical series
        assert row["BW Cache Enable"] < 0.75 * row["TBW Cache Enable"], label
        if agg >= 16:
            # but the cache still wins over the PFS-only path
            assert row["BW Cache Enable"] > 1.5 * row["BW Cache Disable"], label
