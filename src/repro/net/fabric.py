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

Three allocators implement the same model (see docs/PERFORMANCE.md):

* :class:`repro.net.fabric_array.ArrayFabric` (``REPRO_FABRIC=array``, the
  default) runs the incremental dirty-component scheme below but lowers the
  filling loop onto flat arrays, memoizes converged rate vectors by
  component topology signature, and replaces the flush/wake Events with
  pooled callables on the engine's ``call_soon``/``call_later`` fast path.
* :class:`Fabric` (``REPRO_FABRIC=incremental``) recomputes **incrementally**: only the
  connected component of the link–flow graph actually touched by an
  arrival, departure, or capacity change is re-rated; flows whose
  bottleneck structure is disjoint keep their frozen rates.  Same-timestamp
  arrivals (a collective shuffle wave starts dozens of flows at ``sim.now``)
  are coalesced into one recompute via a zero-delay flush event.
* :class:`NaiveFabric` is the original full-recompute reference, selected
  with ``REPRO_FABRIC=naive`` (see :func:`create_fabric`).  The two are
  byte-identical — same rates, same completion timestamps — which
  ``benchmarks/bench_engine.py`` asserts on the full IOR sweep grid and
  ``tests/net/test_fabric_incremental.py`` asserts on randomized churn.

Why the incremental result is *exactly* (bit-for-bit) the full result:
progressive filling only ever moves capacity between a flow and the links
that flow crosses, so two flows in different connected components of the
bipartite link–flow graph never interact — neither through residuals nor
through membership counts.  Within one component the filling order is
fixed by iterating flows in ascending ``fid`` (creation order), which is
precisely the order the full recompute visits them in, so every float
operation — including tie-breaks between equal fair shares — is performed
on the same operands in the same order.
"""

from __future__ import annotations

import os
from itertools import count
from operator import attrgetter
from typing import Iterable, Optional

from repro.sim.core import Event, SimError, Simulator

_EPS = 1e-12
_INF = float("inf")
_by_fid = attrgetter("fid")


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
    subtractions commute).
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
        done: Event,
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
        # every wake arm/scan tests it against every active flow.
        self.threshold = max(1e-6, _EPS * self.nbytes)


class Fabric:
    """The cluster interconnect: per-node NIC in/out links plus loopback.

    This is the **incremental** allocator.  Rates live on the flows and stay
    frozen until a change touches their connected component; the per-change
    work is proportional to the touched component, not to the whole fabric.
    Counters (always on — plain int bumps) feed the benchmark harness:

    * ``recomputes`` / ``recompute_flows`` — filling passes run and flows
      re-rated by them (the naive allocator re-rates every active flow on
      every change).
    * ``recomputes_skipped`` — changes proven unable to alter any share
      (e.g. a capacity change on links with no flows).
    * ``batched_starts`` — flow starts coalesced into an already-pending
      same-timestamp flush instead of triggering their own recompute.
    * ``wake_events`` — wake events actually armed (regression guard for
      the alloc-on-every-change churn this class replaced).
    """

    kind = "incremental"

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
        self._done_to_flow: dict[Event, Flow] = {}  # active flows by done event
        self._weighted = False  # any bundle live since construction?
        self._fid = count()
        self._last_update = 0.0
        self._wake: Optional[Event] = None
        # Links touched since the last recompute, in touch order, plus the
        # zero-delay event that will apply them (identity-checked like the
        # wake event so a superseded flush is a no-op).
        self._dirty: dict[Link, None] = {}
        self._flush_event: Optional[Event] = None
        self.bytes_moved = 0.0
        # Per-tag byte accounting (fleet: one tag per job).  Untagged flows
        # — the entire single-job world — never touch this dict.
        self.bytes_moved_by_tag: dict[str, float] = {}
        self.recomputes = 0
        self.recompute_flows = 0
        self.recomputes_skipped = 0
        self.batched_starts = 0
        self.wake_events = 0

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
    ) -> Event:
        """Begin a transfer; the returned event fires when the last byte lands.

        Zero-byte flows complete after just the propagation latency.
        ``extra_links`` lets callers thread additional shared capacities into
        the fair-sharing computation (e.g. a PFS client's streaming channel
        and the target server's ingest stage).  ``weight > 1`` starts a
        bundle of that many identical member transfers of ``nbytes`` each
        (see :class:`Flow`); the event fires when the bundle's last byte
        lands.
        """
        done = self.sim.event(name=f"flow:{src_node}->{dst_node}")
        if nbytes <= 0:
            done.succeed(delay=self.latency)
            return done
        if src_node == dst_node:
            links = [self._loop[src_node]]
        else:
            links = [self._out[src_node], self._in[dst_node]]
        links.extend(extra_links)
        flow = Flow(next(self._fid), links, nbytes, done, weight=weight, tag=tag)
        if weight != 1:
            self._weighted = True
        self._flows[flow] = None
        self._done_to_flow[done] = flow
        for link in links:
            link.flows[flow] = None
        self.bytes_moved += nbytes * weight
        if tag is not None:
            self.bytes_moved_by_tag[tag] = (
                self.bytes_moved_by_tag.get(tag, 0.0) + nbytes * weight
            )
        self._change(links)
        return done

    def grow_flow(self, flow_done: Event, nbytes: float) -> bool:
        """Add one member of ``nbytes`` to the bundle completing at ``flow_done``.

        Only valid at the instant the bundle was started (the caller
        guarantees this — intra-instant growth is indistinguishable from
        having started the larger bundle, because a zero-length interval
        moves no bytes and a flow can never finish within its start
        instant).  Returns False when the flow cannot be grown (not active,
        or a different per-member size), in which case the caller starts a
        separate flow.
        """
        flow = self._done_to_flow.get(flow_done)
        if flow is None or flow.nbytes != float(nbytes):
            return False
        flow.weight += 1
        self._weighted = True
        self.bytes_moved += nbytes
        if flow.tag is not None:
            self.bytes_moved_by_tag[flow.tag] = (
                self.bytes_moved_by_tag.get(flow.tag, 0.0) + nbytes
            )
        self._change(flow.links)
        return True

    def transfer(self, src_node: int, dst_node: int, nbytes: float):
        """Process-style helper: ``yield from fabric.transfer(...)``."""
        yield self.start_flow(src_node, dst_node, nbytes)

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
        self._fill(self._flows)
        return {f.fid: f.rate for f in self._flows}

    # -- change application ------------------------------------------------------
    def _change(self, links: Iterable[Link]) -> None:
        """A topology change touched ``links``: coalesce into one flush.

        All deferral stays within the current timestamp — the flush event
        has zero delay, so it fires before the clock can advance — which is
        why batching cannot alter any simulated timestamp: the rates in
        effect over every interval of positive length are unchanged.
        """
        if self._flush_event is not None:
            self.batched_starts += 1
        for link in links:
            self._dirty[link] = None
        if self._flush_event is None:
            flush = self.sim.event(name="fabric-flush")
            flush.callbacks.append(self._on_flush)
            flush.succeed()
            self._flush_event = flush

    def _on_flush(self, event: Event) -> None:
        if event is not self._flush_event:
            return  # superseded by an eager flush (flow_rates, wake)
        self._flush_event = None
        self._flush()

    def _force_flush(self) -> None:
        """Apply pending changes now; the armed flush event becomes a no-op."""
        self._flush_event = None
        self._flush()

    def _flush(self) -> None:
        if not self._dirty:
            return
        self._advance()
        dirty, self._dirty = self._dirty, {}
        if self._recompute_touched(dirty):
            self._arm_wake()
        # else: no share could have changed, the armed wake (if any) stands.

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
        seeds = [link for link in dirty if link.flows]
        if not seeds:
            self.recomputes_skipped += 1
            return False
        # Breadth-first over the link-flow graph; ``order`` grows while it
        # is walked.  Dict membership and in-place list growth only — no
        # method calls — and the visit order does not matter: the refill
        # below sorts by fid.
        touched: dict[Flow, None] = {}
        seen = dict.fromkeys(seeds)
        order = seeds
        for link in order:
            for flow in link.flows:
                if flow not in touched:
                    touched[flow] = None
                    for other in flow.links:
                        if other not in seen:
                            seen[other] = None
                            order += (other,)
        self.recomputes += 1
        self.recompute_flows += len(touched)
        # Refill in ascending-fid order — identical to the full recompute's
        # visit order restricted to this component, so tie-breaks (and hence
        # every float) match the naive allocator exactly.
        profiler = self.sim.profiler
        if profiler is None:
            self._fill(sorted(touched, key=_by_fid))
        else:
            with profiler.timer("fabric.recompute"):
                self._fill(sorted(touched, key=_by_fid))
            profiler.count("fabric.recompute_flows", len(touched))
        return True

    def _fill(self, flows: Iterable[Flow]) -> None:
        """Max-min fair allocation of ``flows`` by progressive filling.

        All iteration is over insertion-ordered dicts, so bottleneck
        tie-breaks (symmetric NICs produce many equal shares) resolve the
        same way in every process and the allocation is fully deterministic.
        """
        unfrozen: dict[Flow, None] = dict.fromkeys(flows)
        residual = {link: link.capacity for flow in unfrozen for link in flow.links}
        live = {
            link: dict.fromkeys(f for f in link.flows if f in unfrozen)
            for link in residual
        }
        weighted = self._weighted
        while unfrozen:
            best_link = None
            best_share = _INF
            for link, members in live.items():
                if not members:
                    continue
                if weighted:
                    # Bundle members count individually; both divisors are
                    # exact ints, so all-weight-1 fabrics divide by the same
                    # value either way (the flag only skips the summation).
                    share = residual[link] / sum(f.weight for f in members)
                else:
                    share = residual[link] / len(members)
                if share < best_share:
                    best_share = share
                    best_link = link
            if best_link is None:
                break
            # Clamp against accumulated floating-point error: a residual can
            # drift a few ULPs negative, which would hand out negative rates
            # and stall the completion clock.
            best_share = max(best_share, 0.0)
            for flow in list(live[best_link]):
                flow.rate = best_share
                unfrozen.pop(flow, None)
                for link in flow.links:
                    if link is not best_link:
                        if flow.weight == 1:
                            residual[link] = max(0.0, residual[link] - best_share)
                        else:
                            # One clamped subtraction per bundle member —
                            # exactly what `weight` separate flows would do
                            # (equal-share subtractions commute, so member
                            # interleaving cannot matter).
                            r = residual[link]
                            for _ in range(flow.weight):
                                r = max(0.0, r - best_share)
                            residual[link] = r
                        live[link].pop(flow, None)
            live[best_link].clear()

    def _arm_wake(self) -> None:
        """Arm a wake-up at the next flow completion.

        When nothing can complete (``soonest == inf``) no event is armed at
        all: any previously armed wake is invalidated by dropping the
        reference (it fires, fails the identity check in :meth:`_on_wake`,
        and is ignored), instead of allocating a replacement event per
        change as the original implementation did.
        """
        soonest = _INF
        for flow in self._flows:
            if flow.remaining <= flow.threshold:
                soonest = 0.0
                break
            if flow.rate > _EPS:
                t = flow.remaining / flow.rate
                if t < soonest:
                    soonest = t
        if soonest is _INF:
            self._wake = None
            return
        # Invalidate any previously armed wake-up (identity check below).
        wake = self.sim.event(name="fabric-wake")
        wake.callbacks.append(self._on_wake)
        self._wake = wake
        self.wake_events += 1
        # Floor at one nanosecond so a pathological rate can never stall
        # the simulation clock (livelock guard).
        wake.succeed(delay=max(1e-9, soonest) if soonest > 0.0 else 0.0)

    @staticmethod
    def _finish_threshold(flow: Flow) -> float:
        # Sub-byte residue: done for all practical purposes.  Kept for
        # callers/tests; the hot loops read the precomputed ``flow.threshold``.
        return flow.threshold

    def _on_wake(self, event: Event) -> None:
        if event is not self._wake:
            return  # superseded by a newer reschedule
        self._wake = None
        self._wake_body()

    def _wake_body(self) -> None:
        """Deliver completions at the wake instant (validity already checked)."""
        self._advance()
        finished = [f for f in self._flows if f.remaining <= f.threshold]
        for flow in finished:
            self._flows.pop(flow, None)
            self._done_to_flow.pop(flow.done, None)
            for link in flow.links:
                link.flows.pop(flow, None)
        for flow in finished:
            # Completion is delivered after the propagation latency.
            flow.done.succeed(delay=self.latency)
        self._departures(finished)

    def _departures(self, finished: list[Flow]) -> None:
        """Re-rate after completions, folding in any pending batched changes."""
        if not self._flows:
            self._dirty.clear()
            return
        for flow in finished:
            for link in flow.links:
                self._dirty[link] = None
        dirty, self._dirty = self._dirty, {}
        self._recompute_touched(dirty)
        # The wake just fired (or is now stale), so always re-arm — even if
        # the recompute was skipped, surviving flows still need a wake-up.
        self._arm_wake()


class NaiveFabric(Fabric):
    """The original full-recompute allocator, kept as the reference.

    Every arrival, departure, and capacity change advances the clock and
    re-runs progressive filling over **all** active flows — O(links × flows)
    per filling pass.  Selected with ``REPRO_FABRIC=naive``; the benchmark
    harness runs it A/B against :class:`Fabric` to prove the incremental
    allocator changes no simulated timestamp.
    """

    kind = "naive"

    def _change(self, links: Iterable[Link]) -> None:
        self._advance()
        self._recompute()
        self._arm_wake()

    def _force_flush(self) -> None:  # nothing is ever deferred
        pass

    def _recompute(self) -> None:
        self.recomputes += 1
        self.recompute_flows += len(self._flows)
        profiler = self.sim.profiler
        if profiler is None:
            self._fill(self._flows)
        else:
            with profiler.timer("fabric.recompute"):
                self._fill(self._flows)
            profiler.count("fabric.recompute_flows", len(self._flows))

    def _departures(self, finished: list[Flow]) -> None:
        if self._flows:
            self._recompute()
            self._arm_wake()

    def _arm_wake(self) -> None:
        # Faithful to the original: allocate a fresh wake event on *every*
        # change, even when no flow can complete (soonest == inf) and the
        # event will never be scheduled.  The default allocator's
        # :meth:`Fabric._arm_wake` fixes this churn; the reference keeps it
        # so the regression test can count the difference.
        soonest = _INF
        for flow in self._flows:
            if flow.remaining <= self._finish_threshold(flow):
                soonest = 0.0
            elif flow.rate > _EPS:
                t = flow.remaining / flow.rate
                if t < soonest:
                    soonest = t
        wake = self.sim.event(name="fabric-wake")
        self._wake = wake
        self.wake_events += 1
        if soonest is not _INF:
            wake.callbacks.append(self._on_wake)
            wake.succeed(delay=max(1e-9, soonest) if soonest > 0.0 else 0.0)


# ``repro.net.fabric_array`` registers the default "array" kernel here on
# import; ``repro/net/__init__.py`` imports it right after this module, so
# every package-level import route sees all three allocators.  (Registration
# lives there rather than here to keep the import acyclic.)
FABRIC_KINDS = {"incremental": Fabric, "naive": NaiveFabric}


def default_fabric_kind() -> str:
    """Allocator selection: ``REPRO_FABRIC`` env var, default array."""
    return os.environ.get("REPRO_FABRIC", "array")


def create_fabric(
    sim: Simulator,
    num_nodes: int,
    nic_bw: float,
    latency: float,
    loopback_bw: Optional[float] = None,
    kind: Optional[str] = None,
) -> Fabric:
    """Build the allocator named by ``kind`` (default: ``REPRO_FABRIC``)."""
    kind = default_fabric_kind() if kind is None else kind
    try:
        cls = FABRIC_KINDS[kind]
    except KeyError:
        raise SimError(
            f"unknown fabric allocator {kind!r} (expected one of "
            f"{sorted(FABRIC_KINDS)})"
        ) from None
    return cls(sim, num_nodes, nic_bw, latency, loopback_bw)
