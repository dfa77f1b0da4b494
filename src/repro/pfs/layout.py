"""Striping arithmetic.

A file's byte stream is chopped into ``stripe_size`` units dealt round-robin
over ``stripe_count`` targets (starting at ``first_target``).  These
functions convert between file offsets and (target, target-local offset)
and split arbitrary extents into their per-target pieces — the client's RPC
fan-out and the lock manager's stripe indexing are both built on them.

An extent's RPC plan — its per-target runs, their ``(server, byte total)``
bulk groups and the sync path's per-run RPC split — depends only on the
stripe geometry, the offset *within one stripe row* and the length: a later
row's target offsets are the row-0 offsets plus ``row * stripe_size``.
:func:`pipelined_plan` and :func:`sync_plan` therefore memoise plans
process-wide on ints alone (never on a layout or file identity) and hand
back the row shift; every ``PFSClient`` entry point reads them.

Paper correspondence: §II-B striping (stripe size 4 MB, count 4 in
§IV-A).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from repro.sim.core import SimError
from repro.units import check_count


@dataclass(frozen=True)
class StripeChunk:
    """One stripe-resident piece of a file extent."""

    target: int  # index into the file's target list
    target_offset: int  # byte offset within that target's object
    file_offset: int  # where this piece sits in the file
    length: int
    stripe_index: int  # global stripe number in the file


@dataclass(frozen=True)
class StripeLayout:
    stripe_size: int
    stripe_count: int
    first_target: int = 0

    def __post_init__(self):
        size, count = self.stripe_size, self.stripe_count
        if not (size.__class__ is count.__class__ is int and size > 0 and count > 0):
            check_count("stripe_size", size)
            check_count("stripe_count", count)

    def stripe_of(self, offset: int) -> int:
        return offset // self.stripe_size

    def target_of(self, offset: int) -> int:
        return (self.stripe_of(offset) + self.first_target) % self.stripe_count

    def target_offset_of(self, offset: int) -> int:
        """Byte position inside the target-local object for a file offset."""
        stripe = self.stripe_of(offset)
        row = stripe // self.stripe_count  # how many full rounds precede it
        return row * self.stripe_size + offset % self.stripe_size

    def chunks(self, offset: int, length: int) -> Iterator[StripeChunk]:
        """Split ``[offset, offset+length)`` into per-stripe pieces."""
        if length < 0:
            raise ValueError("negative extent length")
        pos = offset
        end = offset + length
        while pos < end:
            stripe = self.stripe_of(pos)
            stripe_end = (stripe + 1) * self.stripe_size
            piece = min(end, stripe_end) - pos
            yield StripeChunk(
                target=(stripe + self.first_target) % self.stripe_count,
                target_offset=self.target_offset_of(pos),
                file_offset=pos,
                length=piece,
                stripe_index=stripe,
            )
            pos += piece

    def stripes_covered(self, offset: int, length: int) -> range:
        if length <= 0:
            return range(0, 0)
        return range(self.stripe_of(offset), self.stripe_of(offset + length - 1) + 1)

    def align_down(self, offset: int) -> int:
        return (offset // self.stripe_size) * self.stripe_size

    def align_up(self, offset: int) -> int:
        return -(-offset // self.stripe_size) * self.stripe_size


def coalesce_target_runs(chunks: list[StripeChunk]) -> list[list[StripeChunk]]:
    """Group stripe chunks into per-target runs contiguous in target space.

    Round-robin striping makes successive rows land contiguously on each
    target, so a large aligned write becomes one streaming RPC per target.
    """
    by_target: dict[int, list[StripeChunk]] = {}
    for ch in chunks:
        by_target.setdefault(ch.target, []).append(ch)
    runs: list[list[StripeChunk]] = []
    for target in sorted(by_target):
        seq = sorted(by_target[target], key=lambda c: c.target_offset)
        run = [seq[0]]
        for ch in seq[1:]:
            prev = run[-1]
            if ch.target_offset == prev.target_offset + prev.length:
                run.append(ch)
            else:
                runs.append(run)
                run = [ch]
        runs.append(run)
    return runs


# Plans are a few small int tuples each; the bound only guards against a
# workload that never repeats an extent shape.
_PLAN_MEMO_MAX = 4096


def _row_runs(
    stripe_size: int, stripe_count: int, first_target: int, rel: int, nbytes: int, nservers: int
) -> list[tuple[int, int, int]]:
    """``(server, row-0 target offset, byte total)`` per target run; a
    layout's targets map round-robin onto the data servers."""
    layout = StripeLayout(stripe_size, stripe_count, first_target)
    return [
        (run[0].target % nservers, run[0].target_offset, sum(ch.length for ch in run))
        for run in coalesce_target_runs(list(layout.chunks(rel, nbytes)))
    ]


@lru_cache(maxsize=_PLAN_MEMO_MAX)
def _pipelined_plan(stripe_size, stripe_count, first_target, rel, nbytes, nservers, bulk):
    runs = _row_runs(stripe_size, stripe_count, first_target, rel, nbytes, nservers)
    if not bulk:
        return len(runs), tuple((server, total, (t_off,)) for server, t_off, total in runs)
    # Runs of one (server, byte total) are indistinguishable transfers (same
    # endpoints, links and size), so they share one weighted flow; groups and
    # their members keep run order.
    groups: dict[tuple[int, int], list[int]] = {}
    for server, t_off, total in runs:
        groups.setdefault((server, total), []).append(t_off)
    return len(runs), tuple((*key, tuple(offs)) for key, offs in groups.items())


@lru_cache(maxsize=_PLAN_MEMO_MAX)
def _sync_plan(stripe_size, stripe_count, first_target, rel, nbytes, nservers, rpc_count):
    runs = _row_runs(stripe_size, stripe_count, first_target, rel, nbytes, nservers)
    n_rpcs = remaining = max(rpc_count, len(runs))
    plan = []
    for i, (server, t_off, total) in enumerate(runs):
        later = len(runs) - 1 - i
        if later:
            # Spread the chunk count over the runs, proportional to bytes.
            run_rpcs = min(max(1, round(n_rpcs * total / nbytes)), remaining - later)
        else:
            run_rpcs = remaining
        remaining -= run_rpcs
        plan.append((server, t_off, total, run_rpcs))
    return tuple(plan)


def _row_key(layout: StripeLayout, offset: int, nbytes: int) -> tuple[int, tuple]:
    """Validate an extent and split it into (row shift, memo key prefix)."""
    if offset < 0:
        raise SimError(f"offset must be >= 0, got {offset}")
    if nbytes < 0:
        raise SimError(f"nbytes must be >= 0, got {nbytes}")
    size, count = layout.stripe_size, layout.stripe_count
    row, rel = divmod(offset, size * count)
    return row * size, (size, count, layout.first_target, rel, nbytes)


def pipelined_plan(layout: StripeLayout, offset: int, nbytes: int, nservers: int, bulk: bool):
    """Plan of a pipelined extent: ``(shift, nruns, groups)``.

    ``groups`` is a tuple of ``(server index, bytes per run, row-0 target
    offsets)``: one flow of weight ``len(offsets)`` and one server RPC per
    offset (add ``shift``).  Without ``bulk`` every run is its own group.
    """
    shift, key = _row_key(layout, offset, nbytes)
    return shift, *_pipelined_plan(*key, nservers, bool(bulk))


def sync_plan(
    layout: StripeLayout, offset: int, nbytes: int, nservers: int, rpc_count: int | None
):
    """Plan of a synchronous extent: ``(shift, runs)`` with one ``(server
    index, row-0 target offset, bytes, RPCs charged)`` per target run, the
    ``rpc_count`` logical RPCs (at least one per run) spread by bytes."""
    shift, key = _row_key(layout, offset, nbytes)
    return shift, _sync_plan(*key, nservers, rpc_count or 0)


def plan_memo_info() -> dict:
    """``cache_info()`` of the two plan memos (for profiling tools)."""
    return {"pipelined": _pipelined_plan.cache_info(), "sync": _sync_plan.cache_info()}
