"""SimProfiler: collection primitives, engine hooks, trace export."""

import pytest

from repro.net.fabric import Fabric
from repro.reference import HeapSimulator
from repro.sim.profile import SimProfiler
from repro.sim.trace import Tracer


def test_counters_accumulate():
    prof = SimProfiler()
    prof.count("a")
    prof.count("a", 4)
    prof.count("b")
    assert prof.counters == {"a": 5, "b": 1}


def test_timer_accumulates_and_counts_calls():
    prof = SimProfiler()
    for _ in range(3):
        with prof.timer("section"):
            pass
    assert prof.timer_calls["section"] == 3
    assert prof.timings["section"] >= 0.0


def test_timer_records_on_exception():
    prof = SimProfiler()
    with pytest.raises(ValueError):
        with prof.timer("boom"):
            raise ValueError()
    assert prof.timer_calls["boom"] == 1


def test_heap_sample_tracks_peak():
    prof = SimProfiler()
    for depth in (3, 9, 5):
        prof.heap_sample(depth)
    assert prof.heap_peak == 9


def test_snapshot_shape_and_sim_totals():
    prof = SimProfiler()
    prof.count("x")
    with prof.timer("t"):
        pass
    sim = HeapSimulator()
    sim.timeout(1.5)
    sim.run()
    snap = prof.snapshot(sim)
    assert snap["counters"] == {"x": 1}
    assert snap["timer_calls"] == {"t": 1}
    assert snap["events_fired"] == sim.events_fired
    assert snap["sim_time"] == 1.5
    assert "events_fired" not in prof.snapshot()  # no sim passed


def test_engine_hooks_populate_profiler():
    """An attached profiler sees fabric recomputes and heap growth."""
    prof = SimProfiler()
    sim = HeapSimulator()
    sim.profiler = prof
    fabric = Fabric(sim, num_nodes=4, nic_bw=1000.0, latency=1e-4)
    for i in range(8):
        fabric.start_flow(i % 4, (i + 1) % 4, 500)
    sim.run()
    assert prof.counters["fabric.recompute_flows"] >= 8
    assert prof.timer_calls["fabric.recompute"] >= 1
    assert prof.timings["fabric.recompute"] > 0.0
    assert prof.heap_peak >= 1


def test_profiler_does_not_change_results():
    def run(profiler):
        sim = HeapSimulator()
        sim.profiler = profiler
        fabric = Fabric(sim, num_nodes=4, nic_bw=1000.0, latency=1e-4)
        for i in range(10):
            fabric.start_flow(i % 4, (i + 2) % 4, 700)
        sim.run()
        return sim.now, sim.events_fired

    assert run(None) == run(SimProfiler())


def test_chrome_trace_merge():
    prof = SimProfiler()
    prof.count("fabric.recompute_flows", 7)
    with prof.timer("fabric.recompute"):
        pass
    tracer = Tracer(enabled=True)
    tracer.emit(0.25, "pfs", "rpc")
    doc = tracer.to_chrome_trace(profiler=prof)
    names = {e["name"] for e in doc["traceEvents"]}
    assert "rpc" in names
    assert "profiler/fabric.recompute_flows" in names
    assert "profiler/fabric.recompute.wall_s" in names
    assert doc["otherData"]["profiler"]["counters"] == {"fabric.recompute_flows": 7}
    counter_rows = [e for e in doc["traceEvents"] if e["ph"] == "C"]
    assert all(e["tid"] == "profiler" for e in counter_rows)
