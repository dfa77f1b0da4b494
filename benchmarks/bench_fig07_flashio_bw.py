"""Fig. 7 — Flash-IO perceived write bandwidth.

Paper: peak ≈40 GB/s at 64 aggregators / 4 MB buffers versus ≈2 GB/s
direct to the parallel file system; 8 aggregators again mismatch perceived
vs theoretical bandwidth.
"""

from benchmarks.conftest import run_once
from repro.experiments.figures import fig7_flashio_bandwidth
from repro.experiments.report import render_bandwidth_table, shape_checks_bandwidth


def test_fig7_flashio_bandwidth(benchmark, figure_sweep):
    aggs, cbs, scale = figure_sweep
    data = run_once(benchmark, lambda: fig7_flashio_bandwidth(aggs, cbs, scale))
    print()
    print(render_bandwidth_table("Fig. 7: Flash-IO perceived bandwidth", data))
    checks = shape_checks_bandwidth(data)
    print("shape checks:", checks)
    assert all(checks.values()), checks
