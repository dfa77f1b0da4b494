"""Aggregator selection and file-domain partitioning.

Aggregator placement follows ROMIO's ``cb_config_list`` default — at most
one aggregator per node, chosen as the node's lowest rank.  With
``cb_config_spread`` (our default, matching how production sites configure
large clusters) the aggregator nodes are spaced evenly across the machine
so NIC load stays uniform; with it disabled they pack into the first
``cb_nodes`` nodes, ROMIO's literal default order.

File domains are contiguous byte ranges, one per aggregator.  The generic
(UFS) partitioner divides the accessed region evenly; the BeeGFS/Lustre
partitioner aligns domain boundaries to stripe boundaries to avoid stripe
false sharing (footnote 1 of the paper: the BeeGFS ADIO driver developed in
the course of that work does exactly this).

Paper correspondence: §II-A — ``cb_nodes`` selection and file-domain
partitioning, the knobs the §IV sweep varies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class FileDomain:
    """One aggregator's byte range ``[start, end)`` (empty when start >= end)."""

    aggregator_rank: int
    start: int
    end: int

    @property
    def size(self) -> int:
        return max(0, self.end - self.start)


def select_aggregators(
    num_nodes: int,
    procs_per_node: int,
    cb_nodes: Optional[int],
    spread: bool = True,
) -> list[int]:
    """Pick aggregator ranks: one per chosen node, the node's first rank."""
    limit = num_nodes if cb_nodes is None else min(cb_nodes, num_nodes)
    if limit <= 0:
        raise ValueError(f"cb_nodes must be positive, got {cb_nodes}")
    if spread:
        # Evenly spaced node indices, always including node 0.
        nodes = [(i * num_nodes) // limit for i in range(limit)]
    else:
        nodes = list(range(limit))
    return [n * procs_per_node for n in nodes]


def partition_even(
    start: int, end_inclusive: int, aggregators: list[int]
) -> list[FileDomain]:
    """ROMIO's generic equal division of ``[start, end_inclusive]``."""
    total = end_inclusive - start + 1
    if total <= 0:
        return [FileDomain(a, 0, 0) for a in aggregators]
    n = len(aggregators)
    base = total // n
    rem = total % n
    domains = []
    pos = start
    for i, agg in enumerate(aggregators):
        size = base + (1 if i < rem else 0)
        domains.append(FileDomain(agg, pos, pos + size))
        pos += size
    return domains


def partition_stripe_aligned(
    start: int, end_inclusive: int, aggregators: list[int], stripe_size: int
) -> list[FileDomain]:
    """Stripe-aligned division: every boundary is a stripe multiple.

    The first domain's start is the (unaligned) region start; all interior
    boundaries land on stripe multiples so no two aggregators ever touch the
    same stripe — eliminating extent-lock false sharing.
    """
    if stripe_size <= 0:
        raise ValueError(f"stripe_size must be positive, got {stripe_size}")
    end = end_inclusive + 1
    if end <= start:
        return [FileDomain(a, 0, 0) for a in aggregators]
    first_stripe = start // stripe_size
    nstripes = end_inclusive // stripe_size - first_stripe + 1
    base, rem = divmod(nstripes, len(aggregators))
    domains = []
    stripe_pos = first_stripe
    for i, agg in enumerate(aggregators):
        count = base + 1 if i < rem else base
        if count == 0:
            domains.append(FileDomain(agg, 0, 0))
            continue
        lo = stripe_pos * stripe_size if i else start  # the first starts unaligned
        stripe_pos += count
        hi = stripe_pos * stripe_size
        domains.append(FileDomain(agg, lo, hi if hi < end else end))
    return domains


def domains_are_stripe_aligned(domains: list[FileDomain], stripe_size: int) -> bool:
    """Do no two non-empty domains share a stripe?  (test/diagnostic helper)"""
    seen: dict[int, int] = {}
    for d in domains:
        if d.size <= 0:
            continue
        for stripe in (d.start // stripe_size, (d.end - 1) // stripe_size):
            owner = seen.get(stripe)
            if owner is not None and owner != d.aggregator_rank:
                return False
            seen[stripe] = d.aggregator_rank
    return True
