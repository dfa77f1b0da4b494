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
is its own component and is rated where it starts, with no flush.  The filling loop
itself is the *array kernel*:

* **Flat arrays instead of dict churn.**  ``_fill`` lowers the touched
  component into parallel lists indexed by local flow/link ids
  (capacities, integer weight sums, membership as ascending-``fi`` int
  lists) and runs progressive filling over those, with lazy freezing (a
  byte flag per flow, a weight-sum decrement per link) instead of
  per-round dict removals.  The scan order, tie-breaks, and every float
  operation — shares, the ``max(best_share, 0.0)`` clamp, the
  per-bundle-member clamped residual subtractions — are performed on the
  same operands in the same order as the readable dict loop of the full
  recompute (:func:`repro.reference.fill_rates`), which is why the
  result is bit-identical.
* **Converged-rate memoization.**  The filled rates are a pure function
  of the component's *topology signature*: per-flow weights and, per link
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
* **Flush/wake partials.**  The coalesced flush and the wake re-arm are
  ``partial(self._flush_due, gen)`` / ``partial(self._wake_due, gen)``
  scheduled via ``sim.call_soon``/``sim.call_later`` — the slotted engine
  stores the partial itself — each bound to the generation that armed it,
  so one a forced flush or a re-arm superseded does nothing when it
  drains; a re-arm also cancels the superseded wake (``sim.cancel``).
  Each does its whole job in its own callback: the wake advances the
  flows, retires the finished ones (``del`` from every dict holding them)
  and re-rates what they leave.  A flow a flat chain starts (``on_done``)
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
from typing import Callable, Iterable, Optional

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

    * ``recomputes`` / ``recompute_flows`` — filling passes run and flows
      re-rated by them (a full recompute re-rates every active flow on
      every change).
    * ``recomputes_skipped`` — changes proven unable to alter any share
      (e.g. a capacity change on links with no flows).
    * ``batched_starts`` — changes coalesced into an already-pending
      same-timestamp flush instead of triggering their own recompute (a
      flow started alone on its links with no flush pending is neither:
      it is rated at once).
    * ``wake_events`` — wake events actually armed (regression guard for
      the alloc-on-every-change churn this class replaced).
    * ``rate_cache_hits`` / ``rate_cache_misses`` — multi-flow fills served
      from / added to the signature→rates memo.
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
        lone = flow
        for link in links:
            if link.flows:
                lone = None
            link.flows[flow] = None
        self.bytes_moved += nbytes * weight
        if tag is not None:
            self.bytes_moved_by_tag[tag] = (
                self.bytes_moved_by_tag.get(tag, 0.0) + nbytes * weight
            )
        self._change(links, lone)
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
        self._out[node].capacity = self.nic_bw * factor
        self._in[node].capacity = self.nic_bw * factor
        self._change((self._out[node], self._in[node]))

    @property
    def active_flows(self) -> int:
        return len(self._flows)

    def flow_rates(self) -> dict[int, float]:
        """Current rate per flow id (after a fresh recompute) — for tests."""
        self._force_flush()
        self._advance()
        self._fill([*self._flows])
        return {f.fid: f.rate for f in self._flows}

    # -- change application ------------------------------------------------------
    def _change(self, links: Iterable[Link], flow: Optional[Flow] = None) -> None:
        """A topology change touched ``links``: coalesce into one flush.

        All deferral stays within the current timestamp — the flush has
        zero delay, so it fires before the clock can advance — which is
        why batching cannot alter any simulated timestamp: the rates in
        effect over every interval of positive length are unchanged.

        ``flow`` is a flow just started alone on every link it crosses:
        with no flush pending it is its own component, so it is rated here
        and now — advance, refill, arm — which is what the full recompute
        does at every change, and the flush is not needed.
        """
        if self._flush_armed:
            self.batched_starts += 1
        elif flow is not None:
            self._advance()
            self._refill((flow,), 1)
            self._arm_wake()
            return
        else:
            self._flush_armed = True
            self.sim.call_soon(partial(self._flush_due, self._flush_gen))
        dirty = self._dirty
        for link in links:
            dirty[link] = None

    def _flush_due(self, gen: int) -> None:
        """The zero-delay flush: apply the pending changes, unless
        :meth:`_force_flush` superseded it (only the armed flush carries the
        current generation)."""
        if gen != self._flush_gen:
            return
        self._flush_armed = False
        if not self._dirty:
            return
        self._advance()
        dirty, self._dirty = self._dirty, {}
        if self._recompute_touched(dirty):
            self._arm_wake()
        # else: no share could have changed, the armed wake (if any) stands.

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

    def _recompute_touched(self, dirty: dict[Link, None]) -> bool:
        """Re-rate the connected component(s) of the touched links.

        Returns False when the change provably cannot alter any share —
        every touched link is flowless — in which case no filling runs and
        the caller keeps the existing wake-up.
        """
        order = []
        for link in dirty:
            if link.flows:
                order += (link,)
        if not order:
            self.recomputes_skipped += 1
            return False
        # Breadth-first over the link-flow graph; ``order`` grows while it
        # is walked, and ``dirty`` (ours now) doubles as the set of links
        # seen: a flowless link in it is reachable from no flow.  Dict
        # membership and in-place list growth only — no calls — and the
        # visit order does not matter: the refill below sorts by fid.
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
        # Refill in ascending-fid order — identical to the full recompute's
        # visit order restricted to this component, so tie-breaks (and hence
        # every float) match the full recompute exactly.
        self._refill(sorted(touched, key=_by_fid), nflows)
        return True

    def _refill(self, flows: Iterable[Flow], nflows: int) -> None:
        """One filling pass over a whole component, ``flows`` (``nflows``
        of them) in ascending fid order, counted (and timed when profiling)."""
        self.recomputes += 1
        self.recompute_flows += nflows
        profiler = self.sim.profiler
        if profiler is None:
            self._fill(flows)
        else:
            with profiler.timer("fabric.recompute"):
                self._fill(flows)
            profiler.count("fabric.recompute_flows", nflows)

    # -- wake arming ------------------------------------------------------------
    def _arm_wake(self) -> None:
        """Arm a wake-up at the next flow completion (none when nothing
        can complete: ``soonest == inf``)."""
        # Invalidate any previously armed wake-up unconditionally: the new
        # generation stops it if it is already due, and a cancel takes it
        # off the event list if it is not.
        self._wake_gen += 1
        handle = self._wake_handle
        if handle is not None:
            self._wake_handle = None
            self.sim.cancel(handle)
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
        self._wake_handle = self.sim.call_later(
            soonest if soonest > 1e-9 else (1e-9 if soonest > 0.0 else 0.0),
            partial(self._wake_due, self._wake_gen),
        )

    def _wake_due(self, gen: int) -> None:
        """The wake-up, unless a re-arm superseded it (every
        :meth:`_arm_wake` moves the generation on): deliver the completions
        due now, then re-rate what they leave, folding in any pending
        batched changes."""
        if gen != self._wake_gen:
            return
        self._wake_handle = None
        # Advance every flow to now, as :meth:`_advance`, and collect the
        # ones due in the same pass.
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
        sim, latency = self.sim, self.latency
        for flow in finished:
            # Each retired flow is in these dicts exactly once: ``del``.
            del flows[flow]
            for link in flow.links:
                del link.flows[flow]
                dirty[link] = None
            # Completion is delivered after the propagation latency.
            done = flow.done
            if done.__class__ is Event:
                done.succeed(delay=latency)
            else:
                sim.call_later(latency, done)
        self._dirty = {}
        if flows:
            self._recompute_touched(dirty)
            # The wake just fired (or is now stale), so always re-arm — even
            # if the recompute was skipped, surviving flows still need one.
            self._arm_wake()

    # -- the array kernel -------------------------------------------------------
    def _fill(self, flows: list[Flow] | tuple[Flow, ...]) -> None:
        """Progressive filling over flat arrays, memoized by topology signature.

        ``flows`` arrives in ascending-``fid`` order (component refills are
        sorted; ``self._flows`` iterates in creation order), so local flow
        ids ``fi`` enumerate ascending ``fid`` and every per-link member
        list built here matches the insertion order of the full recompute's
        dict ``live`` sets exactly.
        """
        if not flows:
            return
        flow = flows[0]
        if flow is flows[-1]:  # its first flow is its last: no len() call
            # Single-flow component — point-to-point RPC traffic between
            # otherwise idle endpoints, about a third of all fills on
            # cache-enabled sweep points.  Progressive filling reduces to
            # the minimum capacity/weight share over the flow's own links:
            # the same divisions on the same operands in the same scan
            # order (first-touch == flow.links order), the same first-wins
            # tie-break and the same final clamp as the general loop, so
            # the result is bit-identical and the signature build and
            # cache are skipped outright.
            weight = flow.weight
            best_share = _INF
            for link in flow.links:
                share = link.capacity / weight
                if share < best_share:
                    best_share = share
            # A linkless flow is never frozen by the general loop and keeps
            # the 0.0 it was initialized with; the clamp is ``max(best_share,
            # 0.0)`` by comparison (a -0.0 survives it, as there).
            flow.rate = 0.0 if best_share is _INF or best_share < 0.0 else best_share
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
