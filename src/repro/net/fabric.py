"""Max-min fair flow-level network model (paper §IV: the DEEP-ER fabric).

The switch core is treated as non-blocking (valid for the DEEP-ER fat tree
at 64 nodes), so the contended resources are each node's NIC injection and
ejection links.  Active transfers are *flows* holding a residual byte count;
whenever the flow set changes, rates are recomputed by progressive filling
(water-filling): repeatedly find the bottleneck link with the smallest fair
share, freeze its flows at that rate, remove the link, and continue.  This
is the standard fluid approximation for TCP/RDMA fair sharing and captures
exactly the effect the paper's shuffle phase depends on — many ranks
funnelling into few aggregator NICs.

Intra-node transfers bypass the NIC links and move at the (higher) memory
copy bandwidth.

The production allocator, :class:`Fabric` (see docs/PERFORMANCE.md),
recomputes **incrementally**: only the connected component of the link–flow
graph actually touched by an arrival, departure, or capacity change is
re-rated; flows whose bottleneck structure is disjoint keep their frozen
rates.  Same-timestamp arrivals (a round of aggregator writes starts
dozens of stripe flows at ``sim.now``) are coalesced into one recompute by
a zero-delay flush; a flow started alone on its links with no flush
pending — a sync thread's one blocking RPC, most flows under co-tenancy —
is its own component and is rated where it starts, in closed form (a min
over its own links).  The filling loop itself is the *array kernel*:

* **Flat arrays instead of dict churn.**  ``_fill`` lowers the touched
  component into parallel lists indexed by local flow/link ids and runs
  progressive filling over those, with lazy freezing (a byte flag per
  flow, a weight-sum decrement per link).  The scan order, tie-breaks and
  every float operation — shares, the ``max(best_share, 0.0)`` clamp, the
  per-bundle-member clamped residual subtractions — match the readable
  dict loop of the full recompute (:func:`repro.reference.fill_rates`),
  which is why the result is bit-identical.
* **Converged-rate memoization.**  The filled rates are a pure function
  of the component's *topology signature* — per-flow weights and, per link
  crossing, the local id of an already-seen link or the capacity of a
  first-touch link, one flat tuple built with no calls (the key build is
  the whole cost of a hit) — not of ``remaining``/``nbytes`` or identity.
  The sweep's shuffle waves re-rate the same few shapes thousands of
  times, so a bounded signature→rates cache turns filling into a key build
  + dict hit (``rate_cache_hits``/``rate_cache_misses``).
* **One step per change.**  A lone start, the flush and the wake each call
  ``_rate`` once: advance, count, rate (timed by ``SimProfiler.lap`` when
  profiling), re-arm the wake.  The flush and the wake are
  ``partial(self._flush_due, gen)`` / ``partial(self._wake_due, gen)``,
  each bound to the generation that armed it, so one a forced flush or a
  re-arm superseded does nothing when it drains (a re-arm also
  ``sim.cancel``s it).  The wake retires the finished flows (``del`` from
  every dict holding them) and hands all their completions to the engine
  in one ``sim.call_all_later``; a flow a flat chain starts (``on_done``)
  completes by a scheduled call, no Event.

The full recompute (:class:`repro.reference.NaiveFabric`, sharing no code
with this module) re-fills all active flows on every change; the two give
the same rates and completion timestamps (``tests/net`` on randomized
churn, the golden digests on whole runs).

Why the incremental result is *exactly* (bit-for-bit) the full result:
progressive filling only ever moves capacity between a flow and the links
that flow crosses, so two flows in different connected components of the
bipartite link–flow graph never interact — neither through residuals nor
through membership counts.  Within one component the filling order is
fixed by iterating flows in ascending ``fid`` (creation order), which is
precisely the order the full recompute visits them in, so every float
operation — including tie-breaks between equal fair shares — is performed
on the same operands in the same order.  A lone flow rated where it starts
is that component, rated at the instant the flush would rate it, before the
clock can move.
"""

from __future__ import annotations

from functools import partial
from operator import attrgetter
from time import perf_counter
from typing import Callable, Optional, Sequence

from repro.sim.core import Event, SimError, Simulator

_EPS = 1e-12
_INF = float("inf")
_by_fid = attrgetter("fid")

# Bounded memo: signatures are small tuples but unbounded churn (chaos
# schedules mutate capacities) could grow the table; wholesale clear is
# cheap and keeps the common steady-state shapes hot.
_RATE_CACHE_MAX = 4096


class Link:
    """A unidirectional capacity (one NIC direction)."""

    __slots__ = ("name", "capacity", "flows")

    def __init__(self, name: str, capacity: float):
        self.name = name
        self.capacity = float(capacity)
        # Ordered set (dict keys).  A real set would iterate in id()-hash
        # order, i.e. allocation-address order, making tie-breaks in the
        # fair-share computation depend on process history — runs would be
        # reproducible within a process but not across fork/exec, which
        # breaks "parallel sweep == serial sweep bit-for-bit".
        self.flows: dict["Flow", None] = {}


class Flow:
    """An active transfer across a set of links.

    ``weight`` bundles ``weight`` *identical* member transfers (same links,
    same per-member ``nbytes``, started at the same instant) into one flow
    object.  ``nbytes``/``remaining``/``rate`` stay **per member**: the
    bundle counts as ``weight`` entries in every fair-share division and
    subtracts its share ``weight`` times from crossed residuals, so the
    allocation is bit-identical to ``weight`` separate flows (identical
    flows always freeze in the same filling round, and equal-share clamped
    subtractions commute).  ``done`` is the completion Event or callable.
    """

    __slots__ = (
        "fid",
        "links",
        "remaining",
        "rate",
        "done",
        "nbytes",
        "weight",
        "tag",
        "threshold",
    )

    def __init__(
        self,
        fid: int,
        links: list[Link],
        nbytes: float,
        done: Event | Callable[[], None],
        weight: int = 1,
        tag: Optional[str] = None,
    ):
        self.fid = fid
        self.links = links
        self.nbytes = float(nbytes)
        self.remaining = float(nbytes)
        self.rate = 0.0
        self.done = done
        self.weight = weight
        self.tag = tag
        # Finish threshold (sub-byte residue counts as done), precomputed:
        # every wake arm/scan tests it against every active flow.  This is
        # ``max(1e-6, _EPS * nbytes)``, written as the comparison max makes.
        threshold = _EPS * self.nbytes
        self.threshold = threshold if threshold > 1e-6 else 1e-6


class Fabric:
    """The cluster interconnect: per-node NIC in/out links plus loopback.

    This is the production allocator (incremental recompute, array kernel).
    Rates live on the flows and stay frozen until a change touches their
    connected component; the per-change work is proportional to the touched
    component, not to the whole fabric.
    Counters (always on — plain int bumps) feed the benchmark harness:
    ``recomputes``/``recompute_flows`` (filling passes and the flows they
    re-rated; a full recompute re-rates every flow on every change),
    ``recomputes_skipped`` (changes proven unable to alter any share, e.g.
    a capacity change on flowless links), ``batched_starts`` (changes
    coalesced into a pending same-timestamp flush; a lone start rated at
    once is not one), ``wake_events`` (wakes armed) and
    ``rate_cache_hits``/``rate_cache_misses`` (multi-flow fills served
    from / added to the signature→rates memo).
    """

    #: Whether clients start identical same-server transfers as one
    #: weighted flow (a bundle, :class:`Flow`) on this allocator.
    bundles = True

    def __init__(
        self,
        sim: Simulator,
        num_nodes: int,
        nic_bw: float,
        latency: float,
        loopback_bw: Optional[float] = None,
    ):
        self.sim = sim
        self.num_nodes = num_nodes
        self.nic_bw = float(nic_bw)
        self.latency = float(latency)
        self.loopback_bw = float(loopback_bw if loopback_bw is not None else 4 * nic_bw)
        self._out = [Link(f"node{n}.out", nic_bw) for n in range(num_nodes)]
        self._in = [Link(f"node{n}.in", nic_bw) for n in range(num_nodes)]
        self._loop = [Link(f"node{n}.loop", self.loopback_bw) for n in range(num_nodes)]
        self._flows: dict[Flow, None] = {}  # ordered set, see Link.flows
        self._next_fid = 0  # the next flow's fid
        self._last_update = 0.0
        # Links touched since the last recompute, in touch order, applied by
        # one zero-delay flush; flush and wake are scheduled as partials
        # bound to the generation that made them current.
        self._dirty: dict[Link, None] = {}
        self._flush_armed = False
        self._flush_gen = 0
        self._wake_gen = 0
        self._wake_handle = None  # the armed wake's cancel handle until it fires
        self._rate_cache: dict[tuple, tuple[float, ...]] = {}
        self.bytes_moved = 0.0
        # Per-tag byte accounting (fleet: one tag per job).  Untagged flows
        # — the entire single-job world — never touch this dict.
        self.bytes_moved_by_tag: dict[str, float] = {}
        self.recomputes = 0
        self.recompute_flows = 0
        self.recomputes_skipped = 0
        self.batched_starts = 0
        self.wake_events = 0
        self.rate_cache_hits = 0
        self.rate_cache_misses = 0

    # -- public API -----------------------------------------------------------
    def make_link(self, name: str, capacity: float) -> Link:
        """Create an auxiliary capacity (client channel, server ingest, ...)."""
        return Link(name, capacity)

    def start_flow(
        self,
        src_node: int,
        dst_node: int,
        nbytes: float,
        extra_links: tuple[Link, ...] = (),
        weight: int = 1,
        tag: Optional[str] = None,
        on_done: Optional[Callable[[], None]] = None,
    ) -> Optional[Event]:
        """Begin a transfer; the returned event fires when the last byte lands.

        Zero-byte flows complete after just the propagation latency.
        ``extra_links`` lets callers thread additional shared capacities into
        the fair-sharing computation (e.g. a PFS client's streaming channel
        and the target server's ingest stage).  ``weight > 1`` starts a
        bundle of that many identical member transfers of ``nbytes`` each
        (see :class:`Flow`); the event fires when the bundle's last byte
        lands.  A flat chain passes ``on_done`` instead: no Event (None is
        returned), and ``on_done()`` runs by ``sim.call_later(latency,
        on_done)``, in the event's slot.  A bad endpoint, weight or size
        raises a :class:`SimError` naming it.
        """
        # Comparisons only, no calls: ``not x < y`` also refuses a NaN.
        if not 0 <= src_node < self.num_nodes:
            raise SimError(f"start_flow: no such src_node {src_node!r}")
        if not 0 <= dst_node < self.num_nodes:
            raise SimError(f"start_flow: no such dst_node {dst_node!r}")
        if not weight >= 1:
            raise SimError(f"start_flow: weight must be >= 1: {weight!r}")
        if not 0 <= nbytes < _INF:
            raise SimError(f"start_flow: nbytes must be finite and >= 0: {nbytes!r}")
        done = None
        if on_done is None:
            done = self.sim.event(name=f"flow:{src_node}->{dst_node}")
            if nbytes <= 0:
                done.succeed(delay=self.latency)
                return done
        elif nbytes <= 0:
            self.sim.call_later(self.latency, on_done)
            return None
        if src_node == dst_node:
            links = [self._loop[src_node], *extra_links]
        else:
            links = [self._out[src_node], self._in[dst_node], *extra_links]
        fid = self._next_fid
        self._next_fid = fid + 1
        flow = Flow(fid, links, nbytes, on_done or done, weight=weight, tag=tag)
        self._flows[flow] = None
        lone = True
        for link in links:
            if link.flows:
                lone = False
            link.flows[flow] = None
        self.bytes_moved += nbytes * weight
        if tag is not None:
            self.bytes_moved_by_tag[tag] = (
                self.bytes_moved_by_tag.get(tag, 0.0) + nbytes * weight
            )
        # Batched into the armed flush; else, alone on its links, the flow
        # is its own component, rated here and now; else it arms the flush.
        if self._flush_armed:
            self.batched_starts += 1
        elif lone:
            self._rate((flow,))
            return done
        else:
            self._flush_armed = True
            self.sim.call_soon(partial(self._flush_due, self._flush_gen))
        dirty = self._dirty
        for link in links:
            dirty[link] = None
        return done

    def set_node_bw_factor(self, node: int, factor: float) -> None:
        """Scale one endpoint's NIC capacity (both directions) by ``factor``.

        Used by fault injection to model transient link degradation; active
        flows are advanced to now and re-shared immediately, so in-flight
        transfers slow down (or recover) mid-stream.
        """
        if factor <= 0:
            raise SimError(f"bw factor must be > 0, got {factor}")
        if not 0 <= node < self.num_nodes:
            raise SimError(f"no such fabric endpoint {node}")
        out, into = self._out[node], self._in[node]
        out.capacity = into.capacity = self.nic_bw * factor
        if self._flush_armed:
            self.batched_starts += 1
        else:
            self._flush_armed = True
            self.sim.call_soon(partial(self._flush_due, self._flush_gen))
        self._dirty[out] = self._dirty[into] = None

    @property
    def active_flows(self) -> int:
        return len(self._flows)

    def flow_rates(self) -> dict[int, float]:
        """Current rate per flow id, after a fresh fill of them all (a lone
        flow is its own component, already rated in closed form) — for tests."""
        self._force_flush()
        self._advance()
        flows = [*self._flows]
        if len(flows) > 1:
            self._fill(flows)
        return {f.fid: f.rate for f in flows}

    # -- change application ------------------------------------------------------
    # The flush has zero delay, so batching cannot alter any timestamp: the
    # rates in effect over every interval of positive length are unchanged.
    def _flush_due(self, gen: int) -> None:
        """The zero-delay flush: apply the pending changes, unless
        :meth:`_force_flush` superseded it (only the armed flush carries the
        current generation)."""
        if gen != self._flush_gen:
            return
        self._flush_armed = False
        if not self._dirty:
            return
        dirty, self._dirty = self._dirty, {}
        flows = self._recompute_touched(dirty)
        if flows:
            self._rate(flows)
        else:  # no share could have changed, the armed wake (if any) stands
            self._advance()

    def _force_flush(self) -> None:
        """Apply pending changes now; the armed flush becomes a no-op."""
        if self._flush_armed:
            # Invalidate the pending partial: bump the generation so it
            # fails its check when it eventually drains.
            self._flush_gen += 1
        self._flush_due(self._flush_gen)

    # -- internals --------------------------------------------------------------
    def _advance(self) -> None:
        """Progress all flows from the last update instant to now."""
        now = self.sim.now
        dt = now - self._last_update
        if dt > 0:
            for flow in self._flows:
                flow.remaining -= flow.rate * dt
        self._last_update = now

    def _recompute_touched(self, dirty: dict[Link, None]) -> Sequence[Flow]:
        """The connected component of the touched links in ascending fid,
        ``(flow,)`` if one flow, or ``()`` (counted as skipped) when no share
        can change: every touched link is flowless."""
        order = []
        for link in dirty:
            if link.flows:
                order += (link,)
        if not order:
            self.recomputes_skipped += 1
            return ()
        # Breadth-first over the link-flow graph; ``order`` grows while it
        # is walked, and ``dirty`` (ours now) doubles as the set of links
        # seen: a flowless link in it is reachable from no flow.  Dict
        # membership and in-place list growth only — no calls.
        touched: dict[Flow, None] = {}
        nflows = 0
        for link in order:
            for flow in link.flows:
                if flow not in touched:
                    touched[flow] = None
                    nflows += 1
                    for other in flow.links:
                        if other not in dirty:
                            dirty[other] = None
                            order += (other,)
        if nflows == 1:
            return (flow,)  # the one flow every touched link holds
        # Ascending-fid order — identical to the full recompute's visit
        # order restricted to this component, so tie-breaks (and hence
        # every float) match the full recompute exactly.
        return sorted(touched, key=_by_fid)

    def _rate(self, flows: Sequence[Flow]) -> None:
        """The one rating step: advance every flow to now, rate ``flows`` —
        one whole component in ascending fid, counted and, when profiling,
        timed as ``fabric.recompute`` — and re-arm the wake at the next
        completion (none when nothing can complete).  An empty ``flows``
        only re-arms: a wake that left flows but no component."""
        sim = self.sim
        now = sim.now
        dt = now - self._last_update
        if dt > 0:
            for flow in self._flows:
                flow.remaining -= flow.rate * dt
        self._last_update = now
        if flows:
            self.recomputes += 1
            profiler = sim.profiler
            if profiler is not None:
                t0 = perf_counter()
            flow = flows[0]
            if flow is flows[-1]:  # its first flow is its last: no len() call
                # One flow: progressive filling reduces to the minimum
                # capacity/weight share over its links — the general loop's
                # divisions, scan order, first-wins tie-break and clamp, so
                # bit-identical, with no signature and no cache.
                nflows = 1
                weight = flow.weight
                best_share = _INF
                for link in flow.links:
                    share = link.capacity / weight
                    if share < best_share:
                        best_share = share
                # A linkless flow keeps its 0.0; the clamp is ``max(best_share,
                # 0.0)`` by comparison (a -0.0 survives it, as there).
                flow.rate = 0.0 if best_share is _INF or best_share < 0.0 else best_share
            else:
                nflows = len(flows)
                self._fill(flows)
            self.recompute_flows += nflows
            if profiler is not None:
                profiler.lap("fabric.recompute", t0)
                profiler.count("fabric.recompute_flows", nflows)
        # Invalidate any previously armed wake-up unconditionally: the new
        # generation stops it if it is already due, and a cancel takes it
        # off the event list if it is not.
        self._wake_gen += 1
        handle = self._wake_handle
        if handle is not None:
            self._wake_handle = None
            sim.cancel(handle)
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
            return
        self.wake_events += 1
        # Floor at one nanosecond, ``max(1e-9, soonest)`` by comparison, so
        # a pathological rate can never stall the simulation clock (livelock
        # guard); delay-0 wakes land in the same same-instant lane slot an
        # Event ``succeed()`` would.
        self._wake_handle = sim.call_later(
            soonest if soonest > 1e-9 else (1e-9 if soonest > 0.0 else 0.0),
            partial(self._wake_due, self._wake_gen),
        )

    def _wake_due(self, gen: int) -> None:
        """The wake-up, unless a re-arm superseded it (every rating moves
        the generation on): deliver the completions due now, then re-rate
        what they leave, folding in any pending batched changes."""
        if gen != self._wake_gen:
            return
        self._wake_handle = None
        # Advance every flow to now and collect the ones due in one pass.
        now = self.sim.now
        dt = now - self._last_update
        self._last_update = now
        flows, dirty = self._flows, self._dirty
        finished = []
        for flow in flows:
            if dt > 0:
                flow.remaining -= flow.rate * dt
            if flow.remaining <= flow.threshold:
                finished += (flow,)
        dones = []
        for flow in finished:
            # Each retired flow is in these dicts exactly once: ``del``.
            del flows[flow]
            for link in flow.links:
                del link.flows[flow]
                dirty[link] = None
            done = flow.done
            if done.__class__ is Event:
                done.adopt(True, None)  # what ``succeed()`` would set
            dones += (done,)
        # Delivered after the propagation latency, in retire order.
        self.sim.call_all_later(self.latency, dones)
        self._dirty = {}
        if flows:
            # The wake just fired (or is now stale), so always re-arm — even
            # if no component is left to rate, surviving flows need one.
            self._rate(self._recompute_touched(dirty))

    # -- the array kernel -------------------------------------------------------
    def _fill(self, flows: list[Flow] | tuple[Flow, ...]) -> None:
        """Progressive filling over flat arrays, memoized by topology signature.

        ``flows`` (two or more; :meth:`_rate` rates one in closed form)
        arrives in ascending-``fid`` order (components are sorted;
        ``self._flows`` iterates in creation order), so local flow
        ids ``fi`` enumerate ascending ``fid`` and every per-link member
        list built here matches the insertion order of the full recompute's
        dict ``live`` sets exactly.
        """
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
        for flow in flows:
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
            for fi, flow in enumerate(flows):
                flow.rate = cached[fi]
            return
        self.rate_cache_misses += 1
        t_solve = 0.0
        if profiler is not None:
            profiler.count("fabric.rate_cache_misses")
            t_solve = perf_counter()

        # Miss path only: lower the component into parallel lists indexed
        # by local flow/link ids (membership as ascending-``fi`` lists).
        weights = [flow.weight for flow in flows]
        flinks = [[lids[link] for link in flow.links] for flow in flows]
        members: list[list[int]] = [[] for _ in range(nlinks)]
        wsums = [0] * nlinks
        for fi, local in enumerate(flinks):
            for li in local:
                members[li] += (fi,)
                wsums[li] += weights[fi]
        residual = [link.capacity for link in lids]
        nflows = remaining = len(flows)
        rates = [0.0] * nflows
        frozen = bytearray(nflows)
        while remaining:
            best_li = -1
            best_share = _INF
            for li in range(nlinks):
                wsum = wsums[li]
                if not wsum:
                    continue
                # The integer weight sum: the dict loop's divisor, exactly.
                share = residual[li] / wsum
                if share < best_share:
                    best_share = share
                    best_li = li
            if best_li < 0:
                break
            # Clamp accumulated float drift: the dict loop's ``max(best_share,
            # 0.0)`` as the comparison max makes (its *first* argument wins
            # ties, so -0.0 survives exactly as it does there).
            if best_share < 0.0:
                best_share = 0.0
            for fi in members[best_li]:
                if frozen[fi]:
                    continue
                frozen[fi] = 1
                remaining -= 1
                rates[fi] = best_share
                weight = weights[fi]
                for li in flinks[fi]:
                    if li != best_li:
                        # One clamped subtraction per bundle member, exactly
                        # as the dict loop's ``max(0.0, r - best_share)``.
                        r = residual[li]
                        for _ in range(weight):
                            r -= best_share
                            if not r > 0.0:
                                r = 0.0
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
        for fi, flow in enumerate(flows):
            flow.rate = rates[fi]


def create_fabric(
    sim: Simulator,
    num_nodes: int,
    nic_bw: float,
    latency: float,
    loopback_bw: Optional[float] = None,
) -> Fabric:
    """The production allocator."""
    return Fabric(sim, num_nodes, nic_bw, latency, loopback_bw)
