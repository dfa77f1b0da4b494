"""Rendering of figure data as text tables and EXPERIMENTS.md sections."""

from __future__ import annotations

from typing import Mapping

from repro.romio.profiling import PHASES


def render_bandwidth_table(
    title: str, data: Mapping[str, Mapping[str, float]], unit: str = "GiB/s"
) -> str:
    """Rows = <agg>_<cbsize> configs, columns = the three series."""
    series = list(next(iter(data.values())).keys())
    widths = [max(len("config"), max(len(k) for k in data))] + [
        max(len(s), 8) for s in series
    ]
    lines = [title, ""]
    header = "  ".join(
        name.ljust(w) for name, w in zip(["config"] + series, widths)
    )
    lines.append(header)
    lines.append("-" * len(header))
    for label, row in data.items():
        cells = [label.ljust(widths[0])]
        for s, w in zip(series, widths[1:]):
            cells.append(f"{row[s]:.2f}".rjust(w))
        lines.append("  ".join(cells))
    lines.append(f"(values in {unit})")
    return "\n".join(lines)


def render_breakdown_table(title: str, data: Mapping[str, Mapping[str, float]]) -> str:
    """Rows = configs, columns = collective-I/O phases (seconds)."""
    phases = [p for p in PHASES if any(p in row for row in data.values())]
    widths = [max(len("config"), max(len(k) for k in data))] + [
        max(len(p), 8) for p in phases
    ]
    lines = [title, ""]
    header = "  ".join(n.ljust(w) for n, w in zip(["config"] + phases, widths))
    lines.append(header)
    lines.append("-" * len(header))
    for label, row in data.items():
        cells = [label.ljust(widths[0])]
        for p, w in zip(phases, widths[1:]):
            cells.append(f"{row.get(p, 0.0):.3f}".rjust(w))
        lines.append("  ".join(cells))
    lines.append("(per-phase seconds, straggler view, summed over the run's files)")
    return "\n".join(lines)


def shape_checks_bandwidth(data: Mapping[str, Mapping[str, float]]) -> dict[str, bool]:
    """The paper's qualitative claims, checkable on any bandwidth figure."""
    labels = list(data)
    enabled = [data[l]["BW Cache Enable"] for l in labels]
    disabled = [data[l]["BW Cache Disable"] for l in labels]
    tbw = [data[l]["TBW Cache Enable"] for l in labels]
    agg_of = lambda l: int(l.split("_")[0])  # noqa: E731
    big_aggs = [i for i, l in enumerate(labels) if agg_of(l) >= 16]
    small_aggs = [i for i, l in enumerate(labels) if agg_of(l) == 8]
    return {
        # cache wins clearly once enough aggregators flush in parallel
        "cache_speedup_at_16plus_aggregators": all(
            enabled[i] > 1.5 * disabled[i] for i in big_aggs
        ),
        # at 8 aggregators the flush cannot hide: perceived < theoretical
        "not_hidden_at_8_aggregators": all(
            enabled[i] < 0.9 * tbw[i] for i in small_aggs
        ),
        # the theoretical series grows with the number of aggregators
        "tbw_scales_with_aggregators": max(
            tbw[i] for i in small_aggs
        ) < max(tbw[i] for i in big_aggs),
    }
