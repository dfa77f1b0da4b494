"""The fabric's call budget: host cost per flow as an exact number.

A flow costs the calls of its start, its rating and its retirement; the
gate runs a fixed synthetic load under cProfile, without and with a
``SimProfiler`` attached, and holds calls per flow at the measured value +
5 %.  The allocator's counters and the engine's event count are pinned
beside it, so a cheaper run cannot come from fewer recomputes, wakes or
events.
"""

import cProfile
import pstats

from repro.net.fabric import Fabric
from repro.sim.core import Simulator
from repro.sim.profile import SimProfiler

KiB = 1024
BW = 1e9
LAT = 1e-6
CHAINS = 4  # lone point-to-point chains, on nodes 16..23
CHAIN_FLOWS = 100  # flows per chain, each started when the last lands
WAVES = 5  # funnel waves: nodes 8..15 each send to every one of nodes 0..7
WAVE_PERIOD = 5e-3
FLOWS = CHAINS * CHAIN_FLOWS + WAVES * 64

#: cProfile calls per flow of ``fabric_load``, the engine's dispatch
#: included: 9,392 calls / 720 flows (17.02 when a start, a flush and a wake
#: each hopped through ``_change``/``_advance``/``_refill``/``_fill``/
#: ``_arm_wake`` and a wake scheduled each completion by its own
#: ``call_later`` or ``succeed``; 29.30 when a retired flow left each dict by
#: ``pop``, a wake hopped through ``_wake_body``, ``_advance`` and
#: ``_departures``, a fill paid ``list`` and two ``len``, and a start paid
#: ``max``, ``next`` and ``list.extend``).
CALLS_PER_FLOW = 13.05

#: The same with a ``SimProfiler`` attached: 13,507 calls / 720 flows (27.62
#: when every rating opened a ``profiler.timer`` context manager).
PROFILED_CALLS_PER_FLOW = 18.76

#: (events fired, wake_events, recomputes, recomputes_skipped,
#: batched_starts) of ``fabric_load``.
COUNTS = (1_159, 755, 425, 330, 310)


def fabric_load(sim):
    """Lone chains and same-instant funnel waves on a 24-node fabric."""
    fabric = Fabric(sim, num_nodes=24, nic_bw=BW, latency=LAT)

    def chain(c):
        src, dst = 16 + 2 * c, 17 + 2 * c
        left = CHAIN_FLOWS

        def start(_ev=None):
            nonlocal left
            if not left:
                return
            left -= 1
            nbytes = (1 + (left + c) % 5) * 16 * KiB
            if left % 2:  # half on done events, half on scheduled calls
                fabric.start_flow(src, dst, nbytes).callbacks.append(start)
            else:
                fabric.start_flow(src, dst, nbytes, on_done=start)

        return start

    def landed():
        pass  # nothing waits on a wave's flows

    def wave():
        for i in range(64):
            src, dst = 8 + i // 8, i % 8
            fabric.start_flow(src, dst, (1 + i % 4) * 64 * KiB, on_done=landed)

    for c in range(CHAINS):
        sim.call_soon(chain(c))
    for w in range(WAVES):
        sim.call_later(w * WAVE_PERIOD, wave)
    return fabric


def counts(sim, fabric):
    return (
        sim.events_fired,
        fabric.wake_events,
        fabric.recomputes,
        fabric.recomputes_skipped,
        fabric.batched_starts,
    )


def profiled_run(profiler=None):
    """``fabric_load`` under cProfile: the simulator, the fabric and the
    calls it made."""
    sim = Simulator()
    fabric_load(sim)
    sim.run()  # pays the one-off costs of a first run
    sim = Simulator()
    sim.profiler = profiler
    fabric = fabric_load(sim)
    profile = cProfile.Profile()
    profile.enable()
    sim.run()
    profile.disable()
    assert fabric.active_flows == 0
    assert counts(sim, fabric) == COUNTS
    return sim, fabric, pstats.Stats(profile).total_calls


def test_a_flow_stays_within_its_call_budget():
    """Lone flows rated where they start, a funnel wave coalesced into one
    flush, and every completion: gated calls per flow, pinned counters."""
    _, _, calls = profiled_run()
    assert calls / FLOWS <= CALLS_PER_FLOW * 1.05, f"{calls:,d} calls"


def test_a_profiled_flow_stays_within_its_call_budget():
    """Under a ``SimProfiler`` every rating is timed once, by two clock
    reads and a ``lap``, and counted: the same budget check, and the
    profiler's tallies equal to the fabric's own counters."""
    profiler = SimProfiler()
    _, fabric, calls = profiled_run(profiler)
    assert calls / FLOWS <= PROFILED_CALLS_PER_FLOW * 1.05, f"{calls:,d} calls"
    assert profiler.timer_calls["fabric.recompute"] == fabric.recomputes
    assert profiler.counters["fabric.recompute_flows"] == fabric.recompute_flows


def test_retiring_a_flow_leaves_no_entry_behind():
    """A retired flow leaves ``_flows`` and each of its links exactly once:
    a bundle retiring at the instant a capacity change on its sender's NIC
    also ran, a loopback flow with extra links, and both delivery kinds."""
    sim = Simulator()
    fabric = Fabric(sim, num_nodes=4, nic_bw=1000.0, latency=LAT)
    aux = [fabric.make_link(f"aux{i}", 2000.0) for i in range(2)]
    changed, landed = [], []

    def slow_node0():
        fabric.set_node_bw_factor(0, 0.5)
        changed.append(sim.now)

    sim.call_later(1.0, slow_node0)  # before the wake due at 1.0
    bundle = fabric.start_flow(0, 1, 250, extra_links=(aux[0],), weight=3)
    loop = fabric.start_flow(
        2, 2, 5000, extra_links=tuple(aux), on_done=lambda: landed.append(sim.now)
    )
    other = fabric.start_flow(0, 3, 1500)
    # The bundle's 3 members and ``other`` share node 0's NIC at 250 B/s
    # each: the bundle lands at exactly 1.0, where the slowdown ran first.
    bundle.callbacks.append(lambda _ev: landed.append(sim.now))
    sim.run()
    assert loop is None and other.fired
    assert changed == [1.0] and landed[0] == 1.0 + LAT and len(landed) == 2
    assert not fabric._flows
    links = [*fabric._out, *fabric._in, *fabric._loop, *aux]
    assert not any(link.flows for link in links)
