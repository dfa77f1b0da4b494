"""Regeneration of every evaluation figure (paper Figs. 4–10).

Each ``figN_*`` function runs (or reuses) the measurement points it needs
and returns a plain data structure — config label → series → value — that
:mod:`repro.experiments.report` renders as the ASCII equivalent of the
paper's plot and that EXPERIMENTS.md records.

All figures draw their points through a
:class:`~repro.experiments.parallel.SweepRunner` (pass one, or the module
default is used: ``REPRO_JOBS`` workers over the ``.repro_cache/`` disk
cache), so a figure is one deduplicated sweep — the breakdown figures reuse
the bandwidth figures' simulations across processes, not just within one.

Figure map (paper → here):

* Fig. 4  — coll_perf perceived bandwidth (3 series)     → :func:`fig4_collperf_bandwidth`
* Fig. 5  — coll_perf breakdown, cache enabled           → :func:`fig5_collperf_breakdown_cache`
* Fig. 6  — coll_perf breakdown, cache disabled          → :func:`fig6_collperf_breakdown_nocache`
* Fig. 7  — Flash-IO perceived bandwidth (3 series)      → :func:`fig7_flashio_bandwidth`
* Fig. 8  — Flash-IO breakdown, cache enabled            → :func:`fig8_flashio_breakdown`
* Fig. 9  — IOR perceived bandwidth incl. last sync      → :func:`fig9_ior_bandwidth`
* Fig. 10 — IOR breakdown, cache enabled                 → :func:`fig10_ior_breakdown`

Paper correspondence: §IV — each generator regenerates one evaluation
figure at a configurable scale.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.parallel import SweepRunner, default_jobs
from repro.experiments.runner import (
    DEFAULT_SCALE,
    PAPER_AGGREGATORS,
    PAPER_CB_SIZES,
    ExperimentResult,
    ExperimentSpec,
)
from repro.units import GiB, MiB

# A reduced sweep that keeps the paper's corners and the 8-aggregator story;
# the full 4×5 grid is used with ``--full-sweep`` (the sweep CLI, the bench
# modules and tools/generate_experiments_md.py).
QUICK_AGGREGATORS = (8, 16, 32, 64)
QUICK_CB_SIZES = (4 * MiB, 16 * MiB, 64 * MiB)

SERIES = ("BW Cache Disable", "BW Cache Enable", "TBW Cache Enable")
_MODE_OF = {
    "BW Cache Disable": "disabled",
    "BW Cache Enable": "enabled",
    "TBW Cache Enable": "theoretical",
}

_default_runner: Optional[SweepRunner] = None


def get_default_runner() -> SweepRunner:
    """The shared figure runner: ``REPRO_JOBS`` workers, default disk cache."""
    global _default_runner
    if _default_runner is None:
        _default_runner = SweepRunner(jobs=default_jobs())
    return _default_runner


def sweep_labels(aggregators: Sequence[int], cb_sizes: Sequence[int]) -> list[str]:
    return [f"{a}_{cb // MiB}M" for a in aggregators for cb in cb_sizes]


def _sweep(
    benchmark: str,
    modes: Sequence[str],
    aggregators: Sequence[int],
    cb_sizes: Sequence[int],
    scale: Optional[float],
    runner: Optional[SweepRunner],
) -> dict[tuple[str, str], ExperimentResult]:
    """One deduplicated sweep over (label, mode); results keyed the same."""
    runner = get_default_runner() if runner is None else runner
    scale = DEFAULT_SCALE if scale is None else scale
    specs = [
        ExperimentSpec(
            benchmark,
            aggregators=agg,
            cb_buffer=cb,
            cache_mode=mode,
            scale=scale,
        )
        for agg in aggregators
        for cb in cb_sizes
        for mode in modes
    ]
    results = runner.run(specs)
    return {(s.label, s.cache_mode): r for s, r in zip(specs, results)}


def _bandwidth_figure(
    benchmark: str,
    include_last: bool,
    aggregators: Sequence[int],
    cb_sizes: Sequence[int],
    scale: Optional[float],
    runner: Optional[SweepRunner] = None,
) -> dict[str, dict[str, float]]:
    modes = tuple(_MODE_OF[s] for s in SERIES)
    by_point = _sweep(benchmark, modes, aggregators, cb_sizes, scale, runner)
    out: dict[str, dict[str, float]] = {}
    for label in sweep_labels(aggregators, cb_sizes):
        row: dict[str, float] = {}
        for series in SERIES:
            result = by_point[(label, _MODE_OF[series])]
            if series == "TBW Cache Enable":
                value = result.tbw
            else:
                value = result.bw_incl_last if include_last else result.bw
            row[series] = value / GiB
        out[label] = row
    return out


def _breakdown_figure(
    benchmark: str,
    cache_mode: str,
    aggregators: Sequence[int],
    cb_sizes: Sequence[int],
    scale: Optional[float],
    runner: Optional[SweepRunner] = None,
) -> dict[str, dict[str, float]]:
    by_point = _sweep(benchmark, (cache_mode,), aggregators, cb_sizes, scale, runner)
    return {
        label: dict(by_point[(label, cache_mode)].breakdown)
        for label in sweep_labels(aggregators, cb_sizes)
    }


# -- the seven figures -----------------------------------------------------------


def fig4_collperf_bandwidth(
    aggregators=QUICK_AGGREGATORS, cb_sizes=QUICK_CB_SIZES, scale=None, runner=None
):
    """coll_perf perceived bandwidth; the last write phase is excluded
    (paper Section IV-B)."""
    return _bandwidth_figure("coll_perf", False, aggregators, cb_sizes, scale, runner)


def fig5_collperf_breakdown_cache(
    aggregators=QUICK_AGGREGATORS, cb_sizes=QUICK_CB_SIZES, scale=None, runner=None
):
    return _breakdown_figure(
        "coll_perf", "enabled", aggregators, cb_sizes, scale, runner
    )


def fig6_collperf_breakdown_nocache(
    aggregators=QUICK_AGGREGATORS, cb_sizes=QUICK_CB_SIZES, scale=None, runner=None
):
    return _breakdown_figure(
        "coll_perf", "disabled", aggregators, cb_sizes, scale, runner
    )


def fig7_flashio_bandwidth(
    aggregators=QUICK_AGGREGATORS, cb_sizes=QUICK_CB_SIZES, scale=None, runner=None
):
    return _bandwidth_figure("flash_io", False, aggregators, cb_sizes, scale, runner)


def fig8_flashio_breakdown(
    aggregators=QUICK_AGGREGATORS, cb_sizes=QUICK_CB_SIZES, scale=None, runner=None
):
    return _breakdown_figure(
        "flash_io", "enabled", aggregators, cb_sizes, scale, runner
    )


def fig9_ior_bandwidth(
    aggregators=QUICK_AGGREGATORS, cb_sizes=QUICK_CB_SIZES, scale=None, runner=None
):
    """IOR perceived bandwidth *including* the last phase's non-hidden sync
    (paper Section IV-D)."""
    return _bandwidth_figure("ior", True, aggregators, cb_sizes, scale, runner)


def fig10_ior_breakdown(
    aggregators=QUICK_AGGREGATORS, cb_sizes=QUICK_CB_SIZES, scale=None, runner=None
):
    return _breakdown_figure("ior", "enabled", aggregators, cb_sizes, scale, runner)


FULL_SWEEP = (PAPER_AGGREGATORS, PAPER_CB_SIZES)

# name → (function, kind, title); kind selects the renderer ("bandwidth"
# tables carry the three series, "breakdown" tables the per-phase seconds).
FIGURES = {
    "fig4": (fig4_collperf_bandwidth, "bandwidth", "coll_perf perceived bandwidth"),
    "fig5": (
        fig5_collperf_breakdown_cache,
        "breakdown",
        "coll_perf breakdown (cache enabled)",
    ),
    "fig6": (
        fig6_collperf_breakdown_nocache,
        "breakdown",
        "coll_perf breakdown (cache disabled)",
    ),
    "fig7": (fig7_flashio_bandwidth, "bandwidth", "Flash-IO perceived bandwidth"),
    "fig8": (fig8_flashio_breakdown, "breakdown", "Flash-IO breakdown (cache enabled)"),
    "fig9": (
        fig9_ior_bandwidth,
        "bandwidth",
        "IOR perceived bandwidth (incl. last phase)",
    ),
    "fig10": (fig10_ior_breakdown, "breakdown", "IOR breakdown (cache enabled)"),
}
