"""Fig. 8 — Flash-IO contribution breakdown, cache enabled.

Paper: at 8 aggregators cache synchronisation cannot be hidden (the Fig. 7
bandwidth mismatch); global synchronisation contributions are reduced
versus the uncached run, with an occasional post_write outlier showing
that jitter sensitivity *increases* at cache speeds.
"""

from benchmarks.conftest import run_once
from repro.experiments.figures import fig8_flashio_breakdown
from repro.experiments.report import render_breakdown_table


def test_fig8_flashio_breakdown(benchmark, figure_sweep):
    aggs, cbs, scale = figure_sweep
    data = run_once(benchmark, lambda: fig8_flashio_breakdown(aggs, cbs, scale))
    print()
    print(render_breakdown_table("Fig. 8: Flash-IO breakdown (cache enabled)", data))
    eight = {k: v for k, v in data.items() if k.startswith("8_")}
    assert any(row.get("not_hidden_sync", 0) > 0.05 for row in eight.values())
