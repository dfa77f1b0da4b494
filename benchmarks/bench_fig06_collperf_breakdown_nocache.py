"""Fig. 6 — coll_perf contribution breakdown, cache disabled.

Paper: the write term dominates, and the global synchronisation costs
(shuffle_all2all, post_write) are consistently larger than in the cached
case of Fig. 5.
"""

from benchmarks.conftest import run_once
from repro.experiments.figures import (
    fig5_collperf_breakdown_cache,
    fig6_collperf_breakdown_nocache,
)
from repro.experiments.report import render_breakdown_table


def test_fig6_collperf_breakdown_nocache(benchmark, figure_sweep):
    aggs, cbs, scale = figure_sweep
    data = run_once(
        benchmark, lambda: fig6_collperf_breakdown_nocache(aggs, cbs, scale)
    )
    print()
    print(render_breakdown_table("Fig. 6: coll_perf breakdown (cache disabled)", data))
    cached = fig5_collperf_breakdown_cache(aggs, cbs, scale)  # memoised
    # Global sync terms shrink with the cache, configuration by configuration.
    reduced = 0
    for label, row in data.items():
        sync_off = row.get("shuffle_all2all", 0) + row.get("post_write", 0)
        sync_on = cached[label].get("shuffle_all2all", 0) + cached[label].get(
            "post_write", 0
        )
        if sync_on < sync_off:
            reduced += 1
    assert reduced >= 0.7 * len(data)
    # The storage-bound terms dominate the disabled breakdown: the write
    # itself plus the round synchronisation waiting on the slowest writer
    # (shuffle_all2all/post_write) account for most of the time; pure
    # communication and assembly stay minor.
    for label, row in data.items():
        storage_bound = (
            row.get("write", 0)
            + row.get("shuffle_all2all", 0)
            + row.get("post_write", 0)
        )
        total = sum(row.values())
        assert storage_bound > 0.7 * total, label
        assert row["write"] > row.get("comm", 0), label
        assert row["write"] > row.get("memcpy", 0), label
