"""Array fair-share kernel: flat-array progressive filling + rate memoization.

:class:`ArrayFabric` (``REPRO_FABRIC=array``, the default) is the third
allocator over the same max-min model as :class:`repro.net.fabric.Fabric`.
It produces bit-identical rates, timestamps and event counts — asserted by
``benchmarks/bench_engine.py`` on the IOR sweep grid (plus fault and chaos
schedules) and by ``tests/net/test_fabric_array.py`` on randomized churn —
while cutting the per-recompute cost three ways:

* **Flat arrays instead of dict churn.**  ``_fill`` lowers the touched
  component into parallel lists indexed by local flow/link ids (capacities,
  integer weight sums, membership as ascending-``fi`` int lists) and runs
  progressive filling over those, with lazy freezing (a byte flag per flow,
  a weight-sum decrement per link) instead of per-round dict removals.  The
  scan order, tie-breaks, and every float operation — shares, the
  ``max(best_share, 0.0)`` clamp, the per-bundle-member clamped residual
  subtractions — are performed on the same operands in the same order as
  the dict implementation, which is why the result is bit-identical.

* **Converged-rate memoization.**  The filled rates are a pure function of
  the component's *topology signature*: per-flow weights and, per link
  crossing, either the local id of an already-seen link or the capacity
  of a first-touch link — one flat tuple (see ``_fill``), built by a loop
  that grows a list in place and makes no calls, because the key build
  is the whole cost of a cache hit.  They do not depend on
  ``remaining``/``nbytes`` (filling never reads them) or on flow/link
  identity.  The sweep's shuffle waves re-rate the same few shapes
  thousands of times, so a bounded signature→rates cache turns the
  filling loop into a key build + dict hit (``rate_cache_hits`` /
  ``rate_cache_misses`` counters; surfaced via ``SimProfiler`` as
  ``fabric.rate_cache_hits``/``..._misses`` when profiling).
  Single-flow components — a third of all fills on cache-enabled sweep
  points — bypass the signature and cache entirely: their fill is a
  closed-form min over the flow's own links.

* **Pooled flush/wake callables.**  The incremental allocator allocates a
  zero-delay Event per coalesced flush and per wake re-arm, invalidated by
  identity checks.  Here both become pooled callable objects scheduled via
  ``sim.call_soon``/``sim.call_later`` — the slotted engine's ``_Call``
  fast path — invalidated by a generation stamp carried *on the armed
  object* (a stamp on the fabric alone would let a superseded-but-pending
  callable pass the check once re-armed).  Scheduling order, queue
  positions and fired-event counts are identical to the Event variant on
  both engines: ``call_soon`` appends to the same same-instant lane slot
  (or heap position) a ``succeed(delay=0)`` would take, ``call_later`` the
  same timestamp bucket, and dispatching a ``_Call`` bumps the engine's
  fired-event counter exactly like an Event.

See docs/PERFORMANCE.md ("Array fair-share kernel") for the measured table
and the memoization-soundness argument in full.
"""

from __future__ import annotations

from time import perf_counter
from typing import Iterable, Optional

from repro.net.fabric import FABRIC_KINDS, Fabric, Flow, Link
from repro.sim.core import Simulator

_EPS = 1e-12
_INF = float("inf")

# Bounded memo: signatures are small tuples but unbounded churn (chaos
# schedules mutate capacities) could grow the table; wholesale clear is
# cheap and keeps the common steady-state shapes hot.
_RATE_CACHE_MAX = 4096


class _FlushCall:
    """Pooled zero-delay flush callback, validity-checked by generation.

    The generation stamp lives on this object, not (only) on the fabric:
    each arm pops a *fresh* object from the pool, so a pending-but-stale
    callable can never be confused with the currently armed one.
    """

    __slots__ = ("fabric", "gen")

    def __init__(self, fabric: "ArrayFabric"):
        self.fabric = fabric
        self.gen = -1

    def __call__(self) -> None:
        fabric = self.fabric
        pool = fabric._flush_pool
        if len(pool) < 8:
            # Recycle first: at most one queue entry references this object,
            # and ``self.gen`` is read before any re-arm can repurpose it.
            pool.append(self)
        if self.gen == fabric._flush_gen and fabric._flush_armed:
            fabric._flush_armed = False
            fabric._flush()


class _WakeCall:
    """Pooled wake-up callback; same generation scheme as :class:`_FlushCall`."""

    __slots__ = ("fabric", "gen")

    def __init__(self, fabric: "ArrayFabric"):
        self.fabric = fabric
        self.gen = -1

    def __call__(self) -> None:
        fabric = self.fabric
        pool = fabric._wake_pool
        if len(pool) < 8:
            pool.append(self)
        if self.gen == fabric._wake_gen and fabric._wake_armed:
            fabric._wake_armed = False
            fabric._wake_body()


class ArrayFabric(Fabric):
    """Flat-array max-min allocator with converged-rate memoization."""

    kind = "array"

    def __init__(
        self,
        sim: Simulator,
        num_nodes: int,
        nic_bw: float,
        latency: float,
        loopback_bw: Optional[float] = None,
    ):
        super().__init__(sim, num_nodes, nic_bw, latency, loopback_bw)
        # Flush/wake arming state (replaces the base class's Event identity
        # checks; ``_flush_event``/``_wake`` stay None in this subclass).
        self._flush_armed = False
        self._flush_gen = 0
        self._flush_pool: list[_FlushCall] = []
        self._wake_armed = False
        self._wake_gen = 0
        self._wake_pool: list[_WakeCall] = []
        self._rate_cache: dict[tuple, tuple[float, ...]] = {}
        self.rate_cache_hits = 0
        self.rate_cache_misses = 0

    # -- change application (pooled-callable flush) -----------------------------
    def _change(self, links: Iterable[Link]) -> None:
        if self._flush_armed:
            self.batched_starts += 1
        dirty = self._dirty
        for link in links:
            dirty[link] = None
        if not self._flush_armed:
            pool = self._flush_pool
            call = pool.pop() if pool else _FlushCall(self)
            call.gen = self._flush_gen
            self._flush_armed = True
            self.sim.call_soon(call)

    def _force_flush(self) -> None:
        if self._flush_armed:
            # Invalidate the pending callable: bump the generation so it
            # fails its stamp check when it eventually drains.
            self._flush_armed = False
            self._flush_gen += 1
        self._flush()

    # -- wake arming (pooled-callable wake) -------------------------------------
    def _arm_wake(self) -> None:
        # Invalidate any previously armed wake-up unconditionally; the base
        # class achieves the same by replacing the ``_wake`` Event reference.
        self._wake_gen += 1
        soonest = _INF
        for flow in self._flows:
            if flow.remaining <= flow.threshold:
                soonest = 0.0
                break
            rate = flow.rate
            if rate > _EPS:
                t = flow.remaining / rate
                if t < soonest:
                    soonest = t
        if soonest is _INF:
            self._wake_armed = False
            return
        pool = self._wake_pool
        call = pool.pop() if pool else _WakeCall(self)
        call.gen = self._wake_gen
        self._wake_armed = True
        self.wake_events += 1
        # Same 1 ns livelock floor as the base class; delay-0 wakes land in
        # the same same-instant lane slot an Event ``succeed()`` would.
        self.sim.call_later(max(1e-9, soonest) if soonest > 0.0 else 0.0, call)

    # -- the array kernel -------------------------------------------------------
    def _fill(self, flows: Iterable[Flow]) -> None:
        """Progressive filling over flat arrays, memoized by topology signature.

        ``flows`` arrives in ascending-``fid`` order (component refills are
        sorted; ``self._flows`` iterates in creation order), so local flow
        ids ``fi`` enumerate ascending ``fid`` and every per-link member
        list built here matches the insertion order of the dict
        implementation's ``live`` sets exactly.
        """
        flow_list = list(flows)
        nflows = len(flow_list)
        if not nflows:
            return
        if nflows == 1:
            # Single-flow component — point-to-point RPC traffic between
            # otherwise idle endpoints, about a third of all fills on
            # cache-enabled sweep points.  Progressive filling reduces to
            # the minimum capacity/weight share over the flow's own links:
            # the same divisions on the same operands in the same scan
            # order (first-touch == flow.links order), the same first-wins
            # tie-break and the same final clamp as the general loop, so
            # the result is bit-identical and the signature build and
            # cache are skipped outright.
            flow = flow_list[0]
            weight = flow.weight
            best_share = _INF
            for link in flow.links:
                share = link.capacity / weight
                if share < best_share:
                    best_share = share
            # A linkless flow is never frozen by the general loop and
            # keeps the 0.0 it was initialized with.
            flow.rate = 0.0 if best_share is _INF else max(best_share, 0.0)
            return
        # One flat signature: per flow a ``-2`` and its weight, then per link
        # either the local id of an already-seen link or a ``-1`` followed by
        # the capacity of a first-touch link.  Local ids enumerate first-touch
        # order and every position's role is fixed by what precedes it (a
        # weight follows ``-2``, a capacity follows ``-1``, anything else is
        # an id >= 0), so equal keys imply equal topology signatures.  The
        # loop extends the list in place rather than through method calls:
        # building the key is the whole cost of a cache hit.
        lids: dict[Link, int] = {}
        key: list = []
        nlinks = 0
        for flow in flow_list:
            key += (-2, flow.weight)
            for link in flow.links:
                if link in lids:
                    key += (lids[link],)
                else:
                    lids[link] = nlinks
                    nlinks += 1
                    key += (-1, link.capacity)
        sig = tuple(key)
        cached = self._rate_cache.get(sig)
        profiler = self.sim.profiler
        if cached is not None:
            self.rate_cache_hits += 1
            if profiler is not None:
                profiler.count("fabric.rate_cache_hits")
            for fi, flow in enumerate(flow_list):
                flow.rate = cached[fi]
            return
        self.rate_cache_misses += 1
        t_solve = 0.0
        if profiler is not None:
            profiler.count("fabric.rate_cache_misses")
            t_solve = perf_counter()

        # Miss path only: lower the component into parallel lists indexed
        # by local flow/link ids (membership as ascending-``fi`` lists).
        weights = [flow.weight for flow in flow_list]
        flinks = [[lids[link] for link in flow.links] for flow in flow_list]
        members: list[list[int]] = [[] for _ in range(nlinks)]
        for fi, local in enumerate(flinks):
            for li in local:
                members[li].append(fi)
        residual = [link.capacity for link in lids]
        wsums = []
        for li in range(nlinks):
            total = 0
            for fi in members[li]:
                total += weights[fi]
            wsums.append(total)
        rates = [0.0] * nflows
        frozen = bytearray(nflows)
        remaining = nflows
        while remaining:
            best_li = -1
            best_share = _INF
            for li in range(nlinks):
                wsum = wsums[li]
                if not wsum:
                    continue
                # Integer weight sum == len(members) when all weights are 1,
                # so the division matches both base-class divisor branches.
                share = residual[li] / wsum
                if share < best_share:
                    best_share = share
                    best_li = li
            if best_li < 0:
                break
            # Clamp accumulated float drift, verbatim from the base class
            # (max returns its *first* argument on ties, so -0.0 survives
            # exactly as it does there).
            best_share = max(best_share, 0.0)
            for fi in members[best_li]:
                if frozen[fi]:
                    continue
                frozen[fi] = 1
                remaining -= 1
                rates[fi] = best_share
                weight = weights[fi]
                for li in flinks[fi]:
                    if li != best_li:
                        if weight == 1:
                            residual[li] = max(0.0, residual[li] - best_share)
                        else:
                            # One clamped subtraction per bundle member,
                            # exactly as the dict implementation does.
                            r = residual[li]
                            for _ in range(weight):
                                r = max(0.0, r - best_share)
                            residual[li] = r
                        wsums[li] -= weight
            wsums[best_li] = 0

        cache = self._rate_cache
        if len(cache) >= _RATE_CACHE_MAX:
            cache.clear()
        cache[sig] = tuple(rates)
        if profiler is not None:
            # Miss-path solve time: the table tools/profile_sweep.py --top
            # prints shows this against fabric.recompute, making the
            # memoization win (recompute mostly = cache hits) measurable.
            profiler.lap("fabric.fill_solve", t_solve)
        for fi, flow in enumerate(flow_list):
            flow.rate = rates[fi]


FABRIC_KINDS["array"] = ArrayFabric
