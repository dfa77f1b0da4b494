"""Fig. 5 — coll_perf collective-I/O contribution breakdown, cache enabled.

Paper: the not_hidden_sync term appears only at 8 aggregators; global
synchronisation terms (shuffle_all2all, post_write) are small compared to
the cache-disabled breakdown of Fig. 6.
"""

from benchmarks.conftest import run_once
from repro.experiments.figures import fig5_collperf_breakdown_cache
from repro.experiments.report import render_breakdown_table


def test_fig5_collperf_breakdown_cache(benchmark, figure_sweep):
    aggs, cbs, scale = figure_sweep
    data = run_once(benchmark, lambda: fig5_collperf_breakdown_cache(aggs, cbs, scale))
    print()
    print(render_breakdown_table("Fig. 5: coll_perf breakdown (cache enabled)", data))
    # not_hidden_sync must be present at 8 aggregators and absent at 64.
    eight = {k: v for k, v in data.items() if k.startswith("8_")}
    sixty4 = {k: v for k, v in data.items() if k.startswith("64_")}
    assert any(row.get("not_hidden_sync", 0) > 0.05 for row in eight.values())
    worst64 = max(row.get("not_hidden_sync", 0) for row in sixty4.values())
    worst8 = max(row.get("not_hidden_sync", 0) for row in eight.values())
    assert worst8 > worst64
