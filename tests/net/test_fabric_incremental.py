"""Differential and regression tests for the incremental fabric allocator.

:class:`~repro.net.fabric.Fabric` (incremental recompute, array kernel)
must be *byte-identical* to the naive full-recompute reference
(:class:`~repro.reference.NaiveFabric`, the reference stack's): same rates,
same completion timestamps, under arrivals, departures, mid-transfer
capacity changes, and randomized churn.  These tests drive both allocators
through identical seeded schedules and compare.
"""

import random
from functools import partial

import pytest

from repro.net.fabric import Fabric
from repro.reference import HeapSimulator, NaiveFabric
from repro.sim.core import Simulator

BW = 1000.0
LAT = 0.0005
NODES = 6


def churn(fabric_cls, seed, steps=500, bundles=False):
    """Drive one allocator through a seeded random schedule of flow churn.

    Mixes flow starts (with occasional shared auxiliary links), capacity
    changes mid-transfer, rate samples, and clock advances; returns
    (completion times, sampled rate maps, final sim time).  ``bundles``
    also starts weighted flows over both auxiliary links at once, the shape
    of a PFS client's bundled RPCs (channel + server ingest).
    """
    rng = random.Random(seed)
    sim = HeapSimulator()
    fabric = fabric_cls(sim, num_nodes=NODES, nic_bw=BW, latency=LAT)
    aux = [fabric.make_link(f"aux{i}", BW / 2) for i in range(2)]
    completions: dict[int, float] = {}
    samples: list[dict[int, float]] = []
    started = 0
    for _ in range(steps):
        op = rng.random()
        if op < 0.55:
            src = rng.randrange(NODES)
            dst = rng.randrange(NODES)
            nbytes = rng.choice([1, 7, 100, 1000, 4096, 100000]) * rng.uniform(0.5, 1.5)
            extra = (aux[rng.randrange(2)],) if rng.random() < 0.3 else ()
            weight = 1
            if bundles and rng.random() < 0.4:
                extra, weight = tuple(aux), rng.randint(2, 4)
            ev = fabric.start_flow(src, dst, nbytes, extra_links=extra, weight=weight)
            idx = started
            started += 1
            ev.callbacks.append(lambda e, i=idx: completions.__setitem__(i, sim.now))
        elif op < 0.70:
            fabric.set_node_bw_factor(rng.randrange(NODES), rng.uniform(0.2, 1.5))
        elif op < 0.80:
            samples.append(fabric.flow_rates())
        else:
            sim.run(until=sim.now + rng.uniform(0.0, 0.5))
    sim.run()
    assert fabric.active_flows == 0
    return completions, samples, sim.now


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_randomized_differential_naive_vs_incremental(seed):
    inc_done, inc_rates, inc_end = churn(Fabric, seed)
    ref_done, ref_rates, ref_end = churn(NaiveFabric, seed)
    # Completion timestamps must match exactly (byte-identical clock).
    assert inc_end == ref_end
    assert inc_done == ref_done
    # Sampled rate allocations agree to 1e-9 at every sample point.
    assert len(inc_rates) == len(ref_rates)
    for got, want in zip(inc_rates, ref_rates):
        assert got.keys() == want.keys()
        for fid in want:
            assert got[fid] == pytest.approx(want[fid], rel=1e-9, abs=1e-9)


def _run_both(scenario):
    """Run a scenario against both allocators, return both observations."""
    out = []
    for cls in (Fabric, NaiveFabric):
        sim = HeapSimulator()
        fabric = cls(sim, num_nodes=4, nic_bw=BW, latency=LAT)
        out.append(scenario(sim, fabric))
    return out


def test_simultaneous_same_timestamp_completions():
    """Equal flows over the same route must finish at one identical instant."""

    def scenario(sim, fabric):
        times = {}
        done = [fabric.start_flow(0, 1, 750) for _ in range(5)]
        done.append(fabric.start_flow(2, 3, 750 * 5))  # disjoint, same finish
        for i, ev in enumerate(done):
            ev.callbacks.append(lambda e, i=i: times.__setitem__(i, sim.now))
        sim.run()
        assert fabric.active_flows == 0
        return times

    inc, ref = _run_both(scenario)
    assert inc == ref
    # 5 flows share node0.out at BW/5; the disjoint one moves 5x the bytes
    # at full BW: all six land on the same timestamp.
    assert len(set(inc.values())) == 1
    assert inc[0] == pytest.approx(750 * 5 / BW + LAT)


def test_set_node_bw_factor_mid_transfer():
    """A capacity change halfway through re-rates in-flight flows exactly."""

    def scenario(sim, fabric):
        ev = fabric.start_flow(0, 1, 1000)
        times = {}
        ev.callbacks.append(lambda e: times.__setitem__("done", sim.now))
        sim.run(until=0.5)  # 500 bytes moved at full BW
        fabric.set_node_bw_factor(1, 0.25)  # receiver drops to BW/4
        sim.run()
        return times["done"]

    inc, ref = _run_both(scenario)
    assert inc == ref
    # Remaining 500 bytes at 250 B/s -> 2 s more.
    assert inc == pytest.approx(0.5 + 500 / (BW / 4) + LAT)


def test_degrade_then_recover_mid_transfer():
    def scenario(sim, fabric):
        ev = fabric.start_flow(0, 1, 1000)
        times = {}
        ev.callbacks.append(lambda e: times.__setitem__("done", sim.now))
        sim.run(until=0.25)
        fabric.set_node_bw_factor(0, 0.5)
        sim.run(until=0.75)
        fabric.set_node_bw_factor(0, 1.0)
        sim.run()
        return times["done"]

    inc, ref = _run_both(scenario)
    assert inc == ref
    # 250 bytes at BW, 250 at BW/2, remaining 500 at BW again.
    assert inc == pytest.approx(0.25 + 0.5 + 0.5 + LAT)


def test_coalesced_same_timestamp_starts_single_recompute():
    """A burst of same-instant starts costs one filling pass, not N."""
    sim = HeapSimulator()
    fabric = Fabric(sim, num_nodes=4, nic_bw=BW, latency=LAT)
    for _ in range(20):
        fabric.start_flow(0, 1, 500)
    sim.run()
    assert fabric.active_flows == 0
    # The first start is alone on its links and rated at once; the second
    # arms the flush the other 18 join.
    assert fabric.batched_starts == 18
    # One coalesced recompute for the burst, then one per completion wave;
    # all 20 finish together, so that second wave is also a single event.
    assert fabric.recomputes <= 2

    ref_sim = HeapSimulator()
    ref = NaiveFabric(ref_sim, num_nodes=4, nic_bw=BW, latency=LAT)
    for _ in range(20):
        ref.start_flow(0, 1, 500)
    ref_sim.run()
    # One recompute per start; the completion wave empties the fabric, so
    # the naive departure path (which only re-rates survivors) adds none.
    assert ref.recomputes == 20
    assert ref_sim.now == sim.now


def test_disjoint_components_skip_recompute():
    """Changes in one component never re-rate flows of another."""
    sim = HeapSimulator()
    fabric = Fabric(sim, num_nodes=4, nic_bw=BW, latency=LAT)
    fabric.start_flow(0, 1, 10_000)
    sim.run(until=0.001)
    fabric.start_flow(2, 3, 100)  # disjoint component
    sim.run(until=0.002)
    # Each recompute touched exactly its own single-flow component.
    assert fabric.recomputes == 2
    assert fabric.recompute_flows == 2
    sim.run()
    # The short flow's departure left its links empty: provably no share
    # can change, so the departure recompute is skipped outright.
    assert fabric.recomputes_skipped >= 1
    assert fabric.active_flows == 0


def test_wake_event_churn_regression():
    """The fixed allocator arms no wake when nothing can complete.

    The naive reference preserves the original behaviour — a fresh wake
    event allocated on *every* change — so the counters document exactly
    the churn the fix removes.
    """
    sim = HeapSimulator()
    fabric = Fabric(sim, num_nodes=4, nic_bw=BW, latency=LAT)
    dead = fabric.make_link("dead", 1e-15)  # share below _EPS: never completes
    for _ in range(10):
        fabric.start_flow(0, 1, 100, extra_links=(dead,))
    sim.run()
    assert fabric.wake_events == 0  # soonest == inf: nothing armed

    ref_sim = HeapSimulator()
    ref = NaiveFabric(ref_sim, num_nodes=4, nic_bw=BW, latency=LAT)
    dead = ref.make_link("dead", 1e-15)
    for _ in range(10):
        ref.start_flow(0, 1, 100, extra_links=(dead,))
    ref_sim.run()
    assert ref.wake_events == 10  # one allocation per change, all useless


def test_wake_events_far_fewer_under_batching():
    sim = HeapSimulator()
    fabric = Fabric(sim, num_nodes=4, nic_bw=BW, latency=LAT)
    for i in range(30):
        fabric.start_flow(i % 4, (i + 1) % 4, 400)
    sim.run()
    ref_sim = HeapSimulator()
    ref = NaiveFabric(ref_sim, num_nodes=4, nic_bw=BW, latency=LAT)
    for i in range(30):
        ref.start_flow(i % 4, (i + 1) % 4, 400)
    ref_sim.run()
    assert ref_sim.now == sim.now
    assert fabric.wake_events < ref.wake_events


def test_flow_rates_flushes_pending_batch():
    """Rates queried in the same instant as a start must include it."""
    sim = HeapSimulator()
    fabric = Fabric(sim, num_nodes=4, nic_bw=BW, latency=LAT)
    fabric.start_flow(0, 1, 500)
    fabric.start_flow(0, 2, 500)
    rates = fabric.flow_rates()  # before the coalescing flush event fired
    assert rates == {0: pytest.approx(BW / 2), 1: pytest.approx(BW / 2)}
    sim.run()
    assert fabric.active_flows == 0


def test_a_lone_flow_is_rated_where_it_starts():
    """A flow started on an idle fabric is its own component: rated inside
    ``start_flow``, it fires exactly its wake and its delivery — no flush —
    counts one recompute, and lands when the full recompute's does."""
    ends = []
    for cls, sim in ((Fabric, Simulator()), (NaiveFabric, HeapSimulator())):
        fabric = cls(sim, num_nodes=4, nic_bw=BW, latency=LAT)
        done = fabric.start_flow(0, 1, 5000)
        assert fabric.recomputes == 1 and sim.pending == 1  # its wake, no flush
        sim.run()
        assert done.fired and fabric.recomputes == 1 and fabric.wake_events == 1
        ends.append(sim.now)
        if cls is Fabric:
            assert sim.events_fired == 2  # the wake, the delivery
            assert fabric.batched_starts == 0
    assert ends[0] == ends[1]


def test_churn_over_disjoint_pairs_matches_naive():
    """Flows on three disjoint node pairs, some started together on one
    pair: most start alone on their links and are rated where they start,
    the rest go through the flush, and every completion lands on the
    instant the full recompute gives."""

    class Counting(Fabric):
        flushes = 0

        def _flush_due(self, gen):
            Counting.flushes += 1
            super()._flush_due(gen)

    def run(cls, sim):
        rng = random.Random(11)
        fabric = cls(sim, num_nodes=NODES, nic_bw=BW, latency=LAT)
        completions: dict[int, float] = {}

        def note(i):
            completions[i] = sim.now

        started = 0
        for _ in range(300):
            if rng.random() < 0.6:
                pair = rng.randrange(3)
                src, dst = (2 * pair, 2 * pair + 1)[:: rng.choice((1, -1))]
                for _ in range(rng.choice((1, 1, 1, 2))):
                    nbytes = rng.choice([1, 50, 200, 400]) * rng.uniform(0.5, 1.5)
                    if rng.random() < 0.5:
                        on_done = partial(note, started)
                        fabric.start_flow(src, dst, nbytes, on_done=on_done)
                    else:
                        event = fabric.start_flow(src, dst, nbytes)
                        event.callbacks.append(lambda _ev, i=started: note(i))
                    started += 1
            else:
                sim.run(until=sim.now + rng.uniform(0.0, 0.5))
        sim.run()
        assert fabric.active_flows == 0 and len(completions) == started
        return completions, sim.now, started

    got = run(Counting, Simulator())
    assert got == run(NaiveFabric, HeapSimulator())
    assert 0 < Counting.flushes < got[2] / 4
