"""File access patterns: per-rank extent lists and the all-ranks table.

A :class:`RankAccess` is a rank's flattened file view for one I/O call —
sorted, non-overlapping ``(offset, length)`` extents; the bytes they carry
are a function of the file offset (:mod:`repro.payload`), never a buffer
held here.  The two-phase algorithm spends its time intersecting extents
with file-domain windows; that operation is vectorised here
(``searchsorted`` over prefix sums) so benchmark-scale patterns (millions
of extents for coll_perf's 3-D strides) stay cheap.

An :class:`AccessTable` is the same information for *every* rank of one
collective step, immutable and shared by whatever repeats the pattern (the
files of a run, the jobs of a fleet).  A regular pattern stays a descriptor
(:meth:`AccessTable.strided`: a base per rank and ``(count, stride)``
levels, as an MPI derived datatype — never flattened unless something reads
the extents); anything else is CSR arrays (``offsets``/``lengths``
rank-major, ``rank_ptr`` delimiting each rank's slice, one global byte
``prefix``), validated and sorted in one vectorised pass.  Either hands out
per-rank :class:`RankAccess` views.  :meth:`AccessTable.window_pairs`
intersects every rank with the file-domain windows it shares bytes with
(work that grows with those pairs, not ranks × windows) and
:attr:`AccessTable.coverage` is the union of all ranks' extents: what the
model-fidelity exchange builds its per-round send sizes and the
aggregators' write lists from; both are closed forms on a descriptor.

Paper correspondence: these are the offset/length lists the extended
two-phase algorithm exchanges in its first step (§II-A).
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Optional

import numpy as np


def _int64_field(owner: str, name: str, values) -> np.ndarray:
    """``values`` as a 1-D int64 array; floats and other dtypes are refused
    (an empty array carries no values, so its dtype is not held against it)."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iu" and arr.size:
        raise ValueError(f"{owner}: {name} must have an integer dtype, got {arr.dtype}")
    if arr.ndim != 1:
        raise ValueError(f"{owner}: {name} must be 1-D, got shape {arr.shape}")
    return arr.astype(np.int64, copy=False)


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _extent_fields(owner: str, offsets, lengths) -> tuple[np.ndarray, np.ndarray]:
    offsets = _int64_field(owner, "offsets", offsets)
    lengths = _int64_field(owner, "lengths", lengths)
    if offsets.shape != lengths.shape:
        raise ValueError(
            f"{owner}: offsets/lengths must be equal-length 1-D arrays, "
            f"got {len(offsets)} and {len(lengths)}"
        )
    if len(offsets):
        if lengths.min() < 0:
            raise ValueError(f"{owner}: negative extent length {int(lengths.min())}")
        if offsets.min() < 0:
            raise ValueError(f"{owner}: negative file offset {int(offsets.min())}")
    return offsets, lengths


def ranks_interleaved(st_offsets: np.ndarray, end_offsets: np.ndarray) -> bool:
    """ROMIO's check over per-rank ``(st_offset, end_offset)`` (inclusive
    end; ``end < st`` marks an empty access): does any rank start at or
    before the furthest end of the ranks ahead of it?"""
    nonempty = end_offsets >= st_offsets
    st, end = st_offsets[nonempty], end_offsets[nonempty]
    if len(st) < 2:
        return False
    return bool(np.any(st[1:] <= np.maximum.accumulate(end)[:-1]))


@dataclass(frozen=True)
class WindowSlice:
    """The part of a rank's access that falls inside a window."""

    offsets: np.ndarray  # file offsets of the sub-extents
    lengths: np.ndarray
    nbytes: int
    count: int


class RankAccess:
    """One rank's sorted extent list with prefix sums.

    Built either from raw arrays (validated, sorted and overlap-checked
    here) or by :meth:`AccessTable.rank` as a view of a table that already
    did that work for all ranks; ``table``/``rank`` name the owner in the
    second case and are ``None`` in the first.
    """

    def __init__(self, offsets: np.ndarray, lengths: np.ndarray):
        offsets, lengths = _extent_fields("RankAccess", offsets, lengths)
        keep = lengths > 0
        offsets, lengths = offsets[keep], lengths[keep]
        order = np.argsort(offsets, kind="stable")
        self.offsets = offsets[order]
        self.lengths = lengths[order]
        ends = self.offsets + self.lengths
        if len(self.offsets) > 1 and np.any(self.offsets[1:] < ends[:-1]):
            raise ValueError("RankAccess: extents overlap")
        self.ends = ends
        # prefix[i] = bytes in extents [0, i)
        self.prefix = np.concatenate(([0], np.cumsum(self.lengths)))
        self.total_bytes = int(self.prefix[-1])
        self.table: Optional[AccessTable] = None
        self.rank: Optional[int] = None

    @classmethod
    def _view(cls, table: "AccessTable", rank: int) -> "RankAccess":
        self = cls.__new__(cls)
        self.total_bytes = table._bytes[rank]
        self.table = table
        self.rank = rank
        return self

    # Only views get to the four properties below (the constructor stores its
    # own arrays): cut from the table on first use — model-fidelity runs never ask.
    @cached_property
    def offsets(self) -> np.ndarray:
        return self.table._rank_array(self.rank, "offsets")

    @cached_property
    def lengths(self) -> np.ndarray:
        return self.table._rank_array(self.rank, "lengths")

    @cached_property
    def ends(self) -> np.ndarray:
        return self.table._rank_array(self.rank, "ends")

    @cached_property
    def prefix(self) -> np.ndarray:
        return self.table._rank_array(self.rank, "prefix")

    def __len__(self) -> int:
        return len(self.offsets)

    @property
    def empty(self) -> bool:
        return self.total_bytes == 0

    @property
    def start_offset(self) -> int:
        """ROMIO's st_offset (first accessed byte); 0 for an empty access."""
        return int(self.offsets[0]) if len(self.offsets) else 0

    @property
    def end_offset(self) -> int:
        """ROMIO's end_offset (last accessed byte, inclusive); -1 if empty."""
        return int(self.ends[-1]) - 1 if len(self.offsets) else -1

    def bytes_in_window(self, lo: int, hi: int) -> int:
        """Bytes of this access inside ``[lo, hi)`` — O(log n)."""
        if hi <= lo or self.empty:
            return 0
        i = int(np.searchsorted(self.ends, lo, side="right"))
        j = int(np.searchsorted(self.offsets, hi, side="left"))
        if i >= j:
            return 0
        inner = int(self.prefix[j] - self.prefix[i])
        # trim partial overlap at both boundaries
        head = max(0, lo - int(self.offsets[i]))
        tail = max(0, int(self.ends[j - 1]) - hi)
        return inner - head - tail

    def slice_window(self, lo: int, hi: int) -> WindowSlice:
        """Sub-extents of this access inside ``[lo, hi)``."""
        if hi <= lo or self.empty:
            z = np.empty(0, dtype=np.int64)
            return WindowSlice(z, z, 0, 0)
        i = int(np.searchsorted(self.ends, lo, side="right"))
        j = int(np.searchsorted(self.offsets, hi, side="left"))
        if i >= j:
            z = np.empty(0, dtype=np.int64)
            return WindowSlice(z, z, 0, 0)
        offs = self.offsets[i:j].copy()
        lens = self.lengths[i:j].copy()
        head = lo - int(offs[0])
        if head > 0:
            offs[0] += head
            lens[0] -= head
        tail = int(offs[-1] + lens[-1]) - hi
        if tail > 0:
            lens[-1] -= tail
        nbytes = int(lens.sum())
        return WindowSlice(offs, lens, nbytes, int(len(offs)))

    @classmethod
    def contiguous(cls, offset: int, nbytes: int) -> "RankAccess":
        return cls(np.array([offset]), np.array([nbytes]))

    @classmethod
    def empty_access(cls) -> "RankAccess":
        z = np.empty(0, dtype=np.int64)
        return cls(z, z)


# (rank, window) pairs are evaluated a block at a time so the kernel's
# scratch stays around a MiB however dense the pattern: half a MiB of a CSR
# block's rank-keyed extents, and some eight temporaries with one int64 per
# bound of a pair (2**14 bounds, 2**13 pairs).
_BLOCK_EXTENTS = 1 << 16
_BLOCK_QUERIES = 1 << 14


class AccessTable:
    """Every rank's extents for one collective step.

    ``AccessTable(offsets, lengths, rank_ptr)`` is the CSR form, for any
    pattern: ``offsets``/``lengths``/``ends`` hold all extents rank-major
    (rank ``r`` owns ``[rank_ptr[r], rank_ptr[r + 1])``), sorted and
    disjoint within each rank, zero-length extents dropped; ``prefix[k]``
    is the byte count of extents ``[0, k)`` across the whole table.
    :meth:`strided` is the structured form: it holds a descriptor and
    builds those arrays (and a view's own) only when something reads them,
    which the model-fidelity path never does.  All arrays are read-only:
    every file, experiment and fleet job repeating a pattern shares one table.
    """

    #: ``((count, stride), ...)`` of a structured table, ``None`` for CSR
    levels: Optional[tuple[tuple[int, int], ...]] = None

    def __init__(self, offsets, lengths, rank_ptr):
        offsets, lengths = _extent_fields("AccessTable", offsets, lengths)
        rank_ptr = _int64_field("AccessTable", "rank_ptr", rank_ptr)
        n = len(offsets)
        if len(rank_ptr) == 0 or rank_ptr[0] != 0 or rank_ptr[-1] != n:
            raise ValueError(
                f"AccessTable: rank_ptr must run from 0 to len(offsets)={n}, "
                f"got {rank_ptr[:1].tolist()}..{rank_ptr[-1:].tolist()}"
            )
        counts = np.diff(rank_ptr)
        if len(counts) and counts.min() < 0:
            at = int(np.argmax(counts < 0))
            raise ValueError(
                f"AccessTable: rank_ptr must be non-decreasing, got "
                f"{int(rank_ptr[at])} then {int(rank_ptr[at + 1])} at index {at}"
            )
        if not lengths.all():
            keep = lengths > 0
            rank_ptr = np.concatenate(([0], np.cumsum(keep)))[rank_ptr]
            offsets, lengths = offsets[keep], lengths[keep]
            n = len(offsets)
        if n > 1:
            # Neighbouring extents are compared everywhere except across a
            # rank boundary (different ranks may interleave freely).
            same_rank = np.ones(n - 1, dtype=bool)
            edges = rank_ptr[1:-1]
            same_rank[edges[(edges > 0) & (edges < n)] - 1] = False
            if np.any((offsets[1:] < offsets[:-1]) & same_rank):
                owner = np.repeat(np.arange(len(rank_ptr) - 1), np.diff(rank_ptr))
                order = np.lexsort((offsets, owner))
                offsets, lengths = offsets[order], lengths[order]
            clash = (np.diff(offsets) < lengths[:-1]) & same_rank
            if clash.any():
                at = int(np.argmax(clash)) + 1
                rank = int(np.searchsorted(rank_ptr, at, side="right")) - 1
                raise ValueError(
                    f"AccessTable: extents overlap in rank {rank} at offset "
                    f"{int(offsets[at])}"
                )
        self._finish(offsets, lengths, rank_ptr)

    def _finish(self, offsets: np.ndarray, lengths: np.ndarray, rank_ptr: np.ndarray):
        """Derive everything else from int64 arrays already sorted, disjoint
        within each rank and free of zero-length extents."""
        n = len(offsets)
        prefix = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lengths, out=prefix[1:])
        self.offsets = _frozen(offsets.view())
        self.lengths = _frozen(lengths.view())
        self.prefix = _frozen(prefix)
        self.rank_ptr = _frozen(rank_ptr.view())
        self.nranks = len(rank_ptr) - 1
        self.total_bytes = int(prefix[-1])
        counts = np.diff(rank_ptr)
        nonempty = counts > 0
        first, last = rank_ptr[:-1][nonempty], rank_ptr[1:][nonempty] - 1
        #: ROMIO's per-rank st_offset / end_offset (0 / -1 for an empty rank)
        self.st_offsets = np.zeros(self.nranks, dtype=np.int64)
        self.end_offsets = np.full(self.nranks, -1, dtype=np.int64)
        self.st_offsets[nonempty] = offsets[first]
        self.end_offsets[nonempty] = offsets[last] + lengths[last] - 1
        # Sorted and disjoint within a rank: its first extent starts lowest,
        # its last one ends highest.
        self.min_st = int(self.st_offsets[nonempty].min()) if n else 0
        self.max_end = int(self.end_offsets.max()) if n else -1
        self.max_rank_extents = int(counts.max()) if self.nranks else 0
        # Python-int twins of rank_ptr and the per-rank byte counts: rank()
        # runs once per rank per collective call, and list indexing beats
        # numpy scalars.
        self._ptr: list[int] = rank_ptr.tolist()
        self._bytes: list[int] = (prefix[rank_ptr[1:]] - prefix[rank_ptr[:-1]]).tolist()
        self._views: list[Optional[RankAccess]] = [None] * self.nranks

    @classmethod
    def strided(cls, bases, levels, length: int) -> "AccessTable":
        """One strided file view for all ranks: rank ``r``'s extent
        ``(i_1..i_k)`` starts at ``bases[r] + sum(i_j * stride_j)`` and is
        ``length`` bytes; ``levels`` is ``((count, stride), ...)``, outermost
        first.  A stride may not be smaller than the bytes one item of its
        level spans — that is what keeps a rank's extents sorted and
        disjoint, which the array constructor checks extent by extent."""
        owner = "AccessTable.strided"
        bases = _frozen(_int64_field(owner, "bases", bases).view())
        if len(bases) and bases.min() < 0:
            raise ValueError(f"{owner}: negative base {int(bases.min())}")
        if length <= 0:
            raise ValueError(f"{owner}: length must be positive, got {length}")
        levels = tuple((int(count), int(stride)) for count, stride in levels)
        span, per_rank = int(length), 1
        for depth in reversed(range(len(levels))):
            count, stride = levels[depth]
            if count <= 0:
                raise ValueError(f"{owner}: level {depth} count {count} <= 0")
            if stride < span:
                raise ValueError(
                    f"{owner}: level {depth} stride {stride} is smaller than "
                    f"the {span} bytes one of its items spans"
                )
            span += (count - 1) * stride
            per_rank *= count
        self = cls.__new__(cls)
        self._bases, self.levels, self._length = bases, levels, int(length)
        self.nranks = n = len(bases)
        self.total_bytes = n * per_rank * self._length
        self.st_offsets = bases
        self.end_offsets = _frozen(bases + (span - 1))
        self.min_st = int(bases.min()) if n else 0
        self.max_end = int(bases.max()) + span - 1 if n else -1
        self.max_rank_extents = per_rank if n else 0
        self._ptr = list(range(0, n * per_rank + 1, per_rank))
        self._bytes = [per_rank * self._length] * n
        self._views = [None] * n
        return self

    # Only a structured table gets to the four array properties below (the
    # array constructor stores its own): they flatten the descriptor.
    @cached_property
    def _lattice(self) -> np.ndarray:
        """One rank's extent starts relative to its base, ascending."""
        lattice = np.zeros(1, dtype=np.int64)
        for count, stride in self.levels:
            steps = np.arange(count, dtype=np.int64) * stride
            lattice = (lattice[:, None] + steps).ravel()
        return lattice

    @cached_property
    def offsets(self) -> np.ndarray:
        return _frozen((self._bases[:, None] + self._lattice).ravel())

    @cached_property
    def lengths(self) -> np.ndarray:
        return np.broadcast_to(np.int64(self._length), len(self))

    @cached_property
    def prefix(self) -> np.ndarray:
        return _frozen(np.arange(len(self) + 1, dtype=np.int64) * self._length)

    @cached_property
    def rank_ptr(self) -> np.ndarray:
        return _frozen(np.array(self._ptr, dtype=np.int64))

    @cached_property
    def ends(self) -> np.ndarray:
        """``offsets + lengths``; derived on first use — data sieving's
        windows and the CSR coverage merge read it, the model's sums do not."""
        return _frozen(self.offsets + self.lengths)

    def _rank_array(self, rank: int, name: str) -> np.ndarray:
        """Rank ``rank``'s ``offsets``/``lengths``/``ends``/``prefix``: a
        slice of the CSR arrays, or ``base + lattice`` of a descriptor."""
        lo, hi = self._ptr[rank], self._ptr[rank + 1]
        if self.levels is None:
            if name == "prefix":
                return self.prefix[lo : hi + 1] - self.prefix[lo]
            return getattr(self, name)[lo:hi]
        if name == "lengths":
            return np.broadcast_to(np.int64(self._length), hi - lo)
        if name == "prefix":
            return _frozen(np.arange(hi - lo + 1, dtype=np.int64) * self._length)
        start = self._bases[rank] + (self._length if name == "ends" else 0)
        return _frozen(start + self._lattice)

    def __len__(self) -> int:
        return self._ptr[-1]

    def rank(self, rank: int) -> RankAccess:
        """Rank ``rank``'s access as a zero-copy view of this table, immutable
        and handed out again on the next call."""
        if not 0 <= rank < self.nranks:
            raise IndexError(f"AccessTable: rank {rank} outside 0..{self.nranks - 1}")
        view = self._views[rank]
        if view is None:
            view = self._views[rank] = RankAccess._view(self, rank)
        return view

    @classmethod
    def gather(
        cls, accesses: Mapping[int, RankAccess], nranks: int, members=None
    ) -> "AccessTable":
        """The table behind one collective call's accesses, by arriving rank.

        ``members[rank]`` are the other ranks an arriving rank stands for (a
        class that only follows: each brings the same table's view of its
        own).  When all ``nranks`` passed their own view of one table that
        table is returned as is — one check per arrival, whatever it weighs;
        otherwise the (already validated) accesses are packed into a fresh
        table.  A rank absent from ``accesses`` contributes like an empty one.
        """
        table = next(iter(accesses.values())).table if accesses else None
        stood_for = len(accesses)
        if members is not None:
            stood_for += sum(map(len, map(members.__getitem__, accesses)))
        if (
            table is not None
            and table.nranks == nranks == stood_for
            and all([a.table is table and a.rank == r for r, a in accesses.items()])
        ):
            return table
        if stood_for > len(accesses):
            accesses = dict(accesses)
            for rep in list(accesses):
                accesses.update((r, accesses[rep].table.rank(r)) for r in members[rep])
        per_rank = [accesses.get(r) for r in range(nranks)]
        counts = [0 if a is None else len(a.offsets) for a in per_rank]
        rank_ptr = np.zeros(nranks + 1, dtype=np.int64)
        np.cumsum(counts, out=rank_ptr[1:])
        filled = [a for a, c in zip(per_rank, counts) if c]
        if filled:
            offsets = np.concatenate([a.offsets for a in filled])
            lengths = np.concatenate([a.lengths for a in filled])
        else:
            offsets = lengths = np.empty(0, dtype=np.int64)
        self = cls.__new__(cls)
        self._finish(offsets, lengths, rank_ptr)
        return self

    @cached_property
    def interleaved(self) -> bool:
        """ROMIO's interleaving test over the ranks of this table."""
        return ranks_interleaved(self.st_offsets, self.end_offsets)

    @cached_property
    def coverage(self) -> tuple[np.ndarray, np.ndarray]:
        """Union coverage of all ranks as merged ``(starts, ends)`` runs."""
        if self.levels is None:
            return _merge_runs(self.offsets, self.ends)
        # Shifting distributes over union: merge the ranks' first extents,
        # then level by level the ``count`` shifted copies of what is merged
        # so far (innermost first: where runs touch and coalesce).  Sorts
        # count x runs items per level — the whole table only if it must.
        starts, ends = _merge_runs(self._bases, self._bases + self._length)
        for count, stride in reversed(self.levels):
            by = (np.arange(count, dtype=np.int64) * stride)[:, None]
            starts, ends = _merge_runs((starts + by).ravel(), (ends + by).ravel())
        return starts, ends

    @cached_property
    def coverage_bytes(self) -> int:
        """Bytes in :attr:`coverage`: what a collective write of this table
        hands to its aggregators' writes, each byte once."""
        starts, ends = self.coverage
        return int((ends - starts).sum())

    @cached_property
    def digest(self) -> bytes:
        """Fingerprint of the pattern up to a common translation of every
        offset: tables that differ only by a constant file offset (IOR
        segments, the per-file phases of a run) share it.  A memo key, not
        an identity: a descriptor hashes as a descriptor, so a CSR table of
        the same extents has another digest."""
        h = hashlib.blake2b(digest_size=16)
        if self.levels is not None:
            h.update(repr((self.levels, self._length)).encode())
            h.update(self._bases - self.min_st)
            return h.digest()
        h.update(self.offsets - self.min_st)
        h.update(np.ascontiguousarray(self.lengths))  # may be a broadcast scalar
        h.update(self.rank_ptr)
        return h.digest()

    def window_pairs(self, bounds: np.ndarray) -> tuple[np.ndarray, ...]:
        """Intersect every rank with the windows it shares bytes with.

        ``bounds`` is ``(W, K + 1)`` with non-decreasing rows: row ``w``
        delimits the ``K`` consecutive windows ``[bounds[w, k],
        bounds[w, k + 1])``, numbered ``w * K + k``.  Returns four int64
        arrays, an entry per (rank, window) pair that shares a byte,
        rank-major: rank, window, the rank's bytes in it and its extents
        that *start* in it (a piece straddling a bound counts for the window
        holding its start — what the per-piece CPU cost model needs).  Only
        windows within a rank's ``[st_offset, end_offset]`` are evaluated,
        ``_BLOCK_QUERIES // 2`` pairs at a time.  Integer arithmetic: exact.
        """
        bounds = np.asarray(bounds, dtype=np.int64)
        if bounds.ndim != 2:
            raise ValueError(f"AccessTable: bounds must be 2-D, got shape {bounds.shape}")
        lo, hi = bounds[:, :-1].ravel(), bounds[:, 1:].ravel()
        if lo.size == 0 or len(self) == 0:
            return (np.empty(0, dtype=np.int64),) * 4
        if bounds.min() < 0:
            raise ValueError(f"AccessTable: negative window bound {int(bounds.min())}")
        if (hi < lo).any():
            w, k = np.argwhere(bounds[:, 1:] < bounds[:, :-1])[0].tolist()
            raise ValueError(
                f"AccessTable: bounds row {w} decreases from {bounds[w, k]} "
                f"to {bounds[w, k + 1]}"
            )
        # Non-empty windows by start; the running maximum of their ends makes
        # "reaches past a rank's first byte" a prefix test, overlap or not.
        wins = np.flatnonzero(hi > lo)
        wins = wins[np.argsort(lo[wins], kind="stable")]
        first = np.searchsorted(np.maximum.accumulate(hi[wins]), self.st_offsets, side="right")
        counts = np.maximum(np.searchsorted(lo[wins], self.end_offsets, side="right") - first, 0)
        pair_ptr = np.concatenate(([0], np.cumsum(counts)))
        rank = np.repeat(np.arange(self.nranks, dtype=np.int64), counts)
        win = wins[np.arange(len(rank)) + np.repeat(first - pair_ptr[:-1], counts)]
        nbytes, starts = np.empty_like(rank), np.empty_like(rank)
        edges = np.array((lo, hi))
        # A CSR block's keys: a band of ``stride`` per rank, on its own extents.
        stride = max(self.max_end + 1, int(bounds.max())) + 1
        max_ranks, ptr, pair_ptr = max(1, (1 << 62) // stride), self._ptr, pair_ptr.tolist()
        p0, step = 0, max(1, _BLOCK_QUERIES // 2)
        while p0 < len(rank):
            p1 = min(len(rank), p0 + step)
            r0 = int(rank[p0])
            if self.levels is None:
                fits = bisect_right(ptr, ptr[r0] + _BLOCK_EXTENTS, r0 + 1, self.nranks + 1)
                p1 = min(p1, pair_ptr[min(max(fits - 1, r0 + 1), r0 + max_ranks)])
            cum, upto = self._below(rank[p0:p1], edges[:, win[p0:p1]], r0, stride)
            nbytes[p0:p1], starts[p0:p1] = cum[1] - cum[0], upto[1] - upto[0]
            p0 = p1
        keep = nbytes > 0
        return rank[keep], win[keep], nbytes[keep], starts[keep]

    def _below(self, rank, at, r0: int, stride: int) -> tuple[np.ndarray, np.ndarray]:
        """Rank ``rank[q]``'s bytes below ``at[:, q]`` and its extents starting
        strictly below it; a CSR table's ranks run from ``r0`` on."""
        if self.levels is not None:
            # Closed form: peel one level per step off ``at - base``.  The
            # items below the one holding the bound lie wholly below it (an
            # item spans at most its stride), those above wholly above.
            rem = at - self._bases[rank]
            upto, sub = 0, self.max_rank_extents
            for count, level_stride in self.levels:
                sub //= count
                i = np.minimum(np.maximum(rem // level_stride, 0), count - 1)
                rem -= i * level_stride
                upto = upto + i * sub
            cum = upto * self._length + np.minimum(np.maximum(rem, 0), self._length)
            return cum, upto + (rem > 0)
        # One searchsorted serves the block: extents and queries of rank
        # ``r0 + i`` are shifted by ``i * stride``, a band of their own.
        r1 = int(rank[-1]) + 1
        lo = self._ptr[r0]
        band = np.repeat(np.arange(r1 - r0) * stride, np.diff(self.rank_ptr[r0 : r1 + 1]))
        keys = self.offsets[lo : self._ptr[r1]] + band
        first = self.rank_ptr[rank]
        # extents of the rank starting at or below each bound
        upto = np.searchsorted(keys, at + (rank - r0) * stride, side="right") + lo - first
        has = upto > 0
        last = np.where(has, first + upto - 1, lo)  # the nearest such extent
        reach = at - self.offsets[last]
        cum = self.prefix[last] - self.prefix[first]
        cum += np.minimum(np.maximum(reach, 0), self.lengths[last])
        cum[~has] = 0
        return cum, upto - (has & (reach == 0))

    def window_sums(self, bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`window_pairs` as two dense ``(nranks, W, K)`` arrays."""
        bounds = np.asarray(bounds, dtype=np.int64)
        rank, win, nbytes, starts = self.window_pairs(bounds)
        nwin, per_row = bounds.shape[0], max(bounds.shape[1] - 1, 0)
        dense = np.zeros((2, self.nranks, nwin * per_row), dtype=np.int64)
        dense[:, rank, win] = nbytes, starts
        return tuple(dense.reshape(2, self.nranks, nwin, per_row))


def _merge_runs(starts: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coalesce non-empty ``[start, end)`` extents, in any order, into
    sorted runs (overlapping and adjacent extents merge)."""
    if len(starts) == 0:
        z = np.empty(0, dtype=np.int64)
        return z, z
    order = np.argsort(starts, kind="stable")
    starts = starts[order]
    running_end = np.maximum.accumulate(ends[order])
    # A new run begins where the start exceeds every previous end.
    breaks = np.empty(len(starts), dtype=bool)
    breaks[0] = True
    breaks[1:] = starts[1:] > running_end[:-1]
    # End of each run = max end within the run = running_end at the last
    # element of the run.
    idx = np.flatnonzero(breaks)
    last_of_run = np.concatenate((idx[1:] - 1, [len(starts) - 1]))
    return starts[breaks], running_end[last_of_run]


def merge_extent_arrays(
    offset_arrays: list[np.ndarray], length_arrays: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Union coverage of many extent lists, vectorised.

    Returns merged ``(starts, ends)`` arrays sorted ascending, overlapping
    and adjacent runs coalesced.
    """
    if not offset_arrays:
        z = np.empty(0, dtype=np.int64)
        return z, z
    starts = np.concatenate([np.asarray(a, dtype=np.int64) for a in offset_arrays])
    lengths = np.concatenate([np.asarray(a, dtype=np.int64) for a in length_arrays])
    keep = lengths > 0
    starts, lengths = starts[keep], lengths[keep]
    return _merge_runs(starts, starts + lengths)
