"""Fig. 4 — coll_perf perceived write bandwidth.

Paper: BW Cache Disable plateaus at ≈2 GB/s; BW Cache Enable reaches
≈20 GB/s (10×) at 64 aggregators; at 8 aggregators the flush cannot hide
and the perceived bandwidth falls below the theoretical series (and can
drop below the disabled case).  The last write phase is excluded.
"""

from benchmarks.conftest import run_once
from repro.experiments.figures import fig4_collperf_bandwidth
from repro.experiments.report import render_bandwidth_table, shape_checks_bandwidth


def test_fig4_collperf_bandwidth(benchmark, figure_sweep):
    aggs, cbs, scale = figure_sweep
    data = run_once(benchmark, lambda: fig4_collperf_bandwidth(aggs, cbs, scale))
    print()
    print(render_bandwidth_table("Fig. 4: coll_perf perceived bandwidth", data))
    checks = shape_checks_bandwidth(data)
    print("shape checks:", checks)
    assert all(checks.values()), checks
