"""Differential tests for the array fair-share kernel (:class:`Fabric`).

:class:`~repro.net.fabric.Fabric` must be *byte-identical* to the naive
full-recompute reference: same completion timestamps under arrivals,
departures, bundle growth, mid-transfer capacity changes, and 500-step
randomized churn, and on every component it fills exactly (``==``) the rates
of the reference's readable dict loop (:func:`repro.reference.fill_rates`).  The converged-rate
memoization must be a pure lookup — hits may never change a single float.
The wake schedule is pinned: the Event-based incremental allocator this
kernel replaced recorded it, and rating a lone flow where it starts moved it
by exactly the flushes those starts no longer arm.
"""

import random

import pytest

from repro.net import fabric as fabric_mod
from repro.net.fabric import Fabric
from repro.reference import HeapSimulator, NaiveFabric, fill_rates
from repro.sim.core import Simulator

from tests.net.test_fabric_incremental import BW, LAT, NODES, churn


@pytest.mark.parametrize(
    "seed, bundles",
    [pytest.param(seed, False, id=str(seed)) for seed in (1, 2, 3, 4, 5)]
    + [pytest.param(seed, True, id=f"{seed}-bundles") for seed in (1, 2, 3)],
)
def test_randomized_differential_three_way(seed, bundles):
    """500-step churn: array vs naive on the clock, and the array kernel vs
    the dict loop on every component it fills, bit-for-bit."""
    filled = []

    class Checked(Fabric):
        def _fill(self, flows):
            flows = list(flows)
            super()._fill(flows)
            # The oracle, on the same flow list.
            assert [flow.rate for flow in flows] == fill_rates(flows)
            filled.append(len(flows))

    arr_done, arr_rates, arr_end = churn(Checked, seed, bundles=bundles)
    ref_done, ref_rates, ref_end = churn(NaiveFabric, seed, bundles=bundles)
    assert max(filled) > 2  # the kernel proper ran, not just its one-flow shortcut
    # Completion timestamps must match exactly (byte-identical clock).
    assert arr_end == ref_end
    assert arr_done == ref_done
    # Sampled rate maps vs naive: only approx (a different component
    # decomposition accumulates different-but-negligible float drift).
    assert len(arr_rates) == len(ref_rates)
    for got, want in zip(arr_rates, ref_rates):
        assert got.keys() == want.keys()
        for fid in want:
            assert got[fid] == pytest.approx(want[fid], rel=1e-9, abs=1e-9)


# What the allocator does on this churn: (end, wake_events, recomputes,
# recompute_flows, recomputes_skipped, batched_starts, events fired).  The
# end instants and skips are those the Event-based incremental allocator
# this kernel replaced recorded; a flow started alone on its links is rated
# where it starts (its own recompute and wake, no flush), which moved the
# other counters (146/158 wakes, 130/146 recomputes, 5633/5766 flows, 104/87
# batched starts and (309, 270)/(321, 274) events before).  The events are
# per engine, (heapq, slotted): the slotted engine takes a superseded wake
# off its event list (47 and 52 of them) instead of firing it as a no-op,
# which the heap engine still does.
INCREMENTAL = {
    7: (float.fromhex("0x1.9efaeffb77bf7p+7"), 154, 138, 5634, 16, 96, (316, 269)),
    8: (float.fromhex("0x1.4132455419537p+7"), 163, 151, 5767, 12, 82, (325, 273)),
}


@pytest.mark.parametrize("seed", [7, 8])
def test_wake_schedule_identical_to_incremental(seed):
    """Same churn ⇒ same number of armed wakes and recompute structure on
    both engines; the slotted one fires exactly the wakes it cancelled
    fewer."""
    fired = []
    for sim_cls in (HeapSimulator, Simulator):

        class Counting(sim_cls):
            cancelled = 0

            def cancel(self, handle):
                removed = super().cancel(handle)
                if removed and sim_cls is Simulator:
                    Counting.cancelled += 1
                return removed

        rng = random.Random(seed)
        sim = Counting()
        fabric = Fabric(sim, num_nodes=NODES, nic_bw=BW, latency=LAT)
        for _ in range(200):
            op = rng.random()
            if op < 0.6:
                fabric.start_flow(rng.randrange(NODES), rng.randrange(NODES), 5000)
            elif op < 0.7:
                fabric.set_node_bw_factor(rng.randrange(NODES), rng.uniform(0.3, 1.4))
            else:
                sim.run(until=sim.now + rng.uniform(0.0, 2.0))
        sim.run()
        assert INCREMENTAL[seed][:6] == (
            sim.now,
            fabric.wake_events,
            fabric.recomputes,
            fabric.recompute_flows,
            fabric.recomputes_skipped,
            fabric.batched_starts,
        )
        fired.append((sim.events_fired, Counting.cancelled))
    (heap, none_cancelled), (slotted, cancelled) = fired
    assert (heap, slotted) == INCREMENTAL[seed][6]
    assert none_cancelled == 0 and slotted + cancelled == heap


def _drive_pair(scenario, ref_cls=NaiveFabric, sim_cls=HeapSimulator):
    out = []
    for cls in (Fabric, ref_cls):
        sim = sim_cls()
        fabric = cls(sim, num_nodes=6, nic_bw=BW, latency=LAT)
        out.append(scenario(sim, fabric))
    return out


def test_zero_byte_flows_complete_after_latency():
    def scenario(sim, fabric):
        times = {}
        ev = fabric.start_flow(0, 1, 0)
        ev.callbacks.append(lambda _e: times.__setitem__("zero", sim.now))
        sim.run()
        return times

    arr, ref = _drive_pair(scenario)
    assert arr == ref == {"zero": LAT}


def test_mid_flight_bw_factor_identical():
    def scenario(sim, fabric):
        times = {}
        for i in range(4):
            ev = fabric.start_flow(0, 1 + i % 2, 10_000)
            ev.callbacks.append(lambda _e, i=i: times.__setitem__(i, sim.now))
        sim.run(until=2.0)
        fabric.set_node_bw_factor(0, 0.25)
        sim.run(until=6.0)
        fabric.set_node_bw_factor(0, 1.25)
        sim.run()
        return times

    arr, ref = _drive_pair(scenario)
    assert arr == ref


def test_array_on_slotted_engine_matches_heapq():
    """The flush/wake partials are engine-independent."""

    def scenario(sim, fabric):
        times = {}
        for i in range(8):
            ev = fabric.start_flow(i % 3, (i + 1) % 3, 2500 * (1 + i % 2))
            ev.callbacks.append(lambda _e, i=i: times.__setitem__(i, sim.now))
        sim.run(until=1.0)
        fabric.set_node_bw_factor(1, 0.5)
        sim.run()
        return times

    slotted = _drive_pair(scenario, sim_cls=Simulator)
    heapq_ = _drive_pair(scenario, sim_cls=HeapSimulator)
    assert slotted[0] == slotted[1]  # array == naive on slotted
    assert slotted[0] == heapq_[0]  # array: slotted == heapq


def test_rate_cache_hits_on_repeated_shapes():
    """Repeated same-shape waves become cache hits; rates stay identical."""
    sim = HeapSimulator()
    fabric = Fabric(sim, num_nodes=4, nic_bw=BW, latency=LAT)
    reference = None
    for _wave in range(5):
        for i in range(6):
            fabric.start_flow(0, 1 + i % 3, 750)
        rates = sorted(fabric.flow_rates().values())
        if reference is None:
            reference = rates
        else:
            assert rates == reference
        sim.run()
        assert fabric.active_flows == 0
    assert fabric.rate_cache_hits > 0
    assert fabric.rate_cache_misses >= 1
    # Every fill either hit or missed.
    assert fabric.rate_cache_hits + fabric.rate_cache_misses > 5


def test_rate_cache_distinguishes_capacity_changes():
    """A capacity change must change the signature, never reuse stale rates."""
    sim = HeapSimulator()
    fabric = Fabric(sim, num_nodes=4, nic_bw=BW, latency=LAT)
    fabric.start_flow(0, 1, 1000)
    fabric.start_flow(0, 1, 1000)
    first = fabric.flow_rates()
    assert set(first.values()) == {BW / 2}
    sim.run()
    fabric.set_node_bw_factor(0, 0.5)
    fabric.start_flow(0, 1, 1000)
    fabric.start_flow(0, 1, 1000)
    second = fabric.flow_rates()
    assert set(second.values()) == {BW / 4}
    sim.run()


def test_rate_cache_bounded():
    sim = HeapSimulator()
    fabric = Fabric(sim, num_nodes=4, nic_bw=BW, latency=LAT)
    for i in range(200):
        # A new capacity each wave forces a new signature.  Two flows per
        # wave: single-flow components bypass the signature cache entirely.
        fabric.set_node_bw_factor(0, 1.0 + (i + 1) / 1000.0)
        fabric.start_flow(0, 1, 100)
        fabric.start_flow(0, 1, 100)
        fabric.flow_rates()
        sim.run()
    assert len(fabric._rate_cache) <= fabric_mod._RATE_CACHE_MAX
    assert fabric.rate_cache_misses >= 200


def test_single_flow_fast_path_bypasses_cache():
    """One-flow components solve in closed form without touching the cache."""
    sim = HeapSimulator()
    fabric = Fabric(sim, num_nodes=4, nic_bw=BW, latency=LAT)
    for i in range(10):
        fabric.start_flow(0, 1 + i % 3, 500)
        rates = list(fabric.flow_rates().values())
        assert rates == [BW]
        sim.run()
        assert fabric.active_flows == 0
    assert fabric.rate_cache_hits == 0
    assert fabric.rate_cache_misses == 0
    assert len(fabric._rate_cache) == 0
