"""Fig. 10 — IOR contribution breakdown, cache enabled.

Paper: the not_hidden_sync term — T_s(4) with C(5)=0 — is clearly visible
and prevents IOR from reaching the higher bandwidths of Figs. 4/7.
"""

from benchmarks.conftest import run_once
from repro.experiments.figures import fig10_ior_breakdown
from repro.experiments.report import render_breakdown_table


def test_fig10_ior_breakdown(benchmark, figure_sweep):
    aggs, cbs, scale = figure_sweep
    data = run_once(benchmark, lambda: fig10_ior_breakdown(aggs, cbs, scale))
    print()
    print(render_breakdown_table("Fig. 10: IOR breakdown (cache enabled)", data))
    # every configuration carries the unhidden last-phase sync
    assert all(row.get("not_hidden_sync", 0) > 0.05 for row in data.values())
