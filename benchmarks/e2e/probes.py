"""Layer probes: one layer's public API under a fixed synthetic load.

Each probe is workload-independent and small (tens of milliseconds): it
reports the minimum CPU time per item over ``REPS`` repetitions, and an
exact twin — the function calls one repetition makes — that resolves a
change the timing cannot.  ``run.py`` starts this file as one child of the
traced run; probes never feed an end-to-end metric.

``fleet.flatness`` is the odd one out: events per CPU-second of a
80-job fleet over a 20-job reference fleet, one shot each (ROADMAP item 2
wants it flat in fleet size; 1.0 is flat).
"""

from __future__ import annotations

import argparse
import cProfile
import json
import sys
import time

REPS = 7
KiB = 1 << 10
MiB = 1 << 20


def sim_dispatch():
    """64 processes x 200 timeouts through the default engine."""
    from repro.sim.core import create_simulator

    sim = create_simulator()

    def chain(c):
        for r in range(200):
            yield sim.timeout(1e-6 * ((c + r) % 7 + 1))

    for c in range(64):
        sim.process(chain(c))
    sim.run()
    return sim.events_fired


def net_funnel():
    """Shuffle waves: 512 flows from 64 nodes into 8 endpoints."""
    from repro.net.fabric import create_fabric
    from repro.sim.core import create_simulator

    sim = create_simulator()
    fabric = create_fabric(sim, num_nodes=64, nic_bw=1e9, latency=1e-6)
    waves = 2
    for _ in range(waves):
        for r in range(512):
            fabric.start_flow(r % 64, (r % 8) * 8, 1e6 + r)
        sim.run()
    return waves


def pfs_write():
    """One client writes 32 MiB in 1 MiB calls over 4 x 64 KiB stripes."""
    from repro.config import small_testbed
    from repro.machine import Machine

    machine = Machine(small_testbed())
    client = machine.pfs_client(0)

    def proc():
        f = yield from client.create("/g/probe", stripe_size=64 * KiB, stripe_count=4)
        for i in range(32):
            yield from client.write(f, i * MiB, MiB)

    machine.sim.run(until=machine.sim.process(proc()))
    return client.rpcs


def localfs_write():
    """2048 writes of 64 KiB to one scratch file, then fsync."""
    from repro.config import small_testbed
    from repro.machine import Machine

    machine = Machine(small_testbed())
    fs = machine.local_fs[0]
    ops = 2048

    def proc():
        f = fs.open("/scratch/probe")
        for i in range(ops):
            yield from fs.write(f, i * 64 * KiB, 64 * KiB)
        yield from fs.fsync(f)

    machine.sim.run(until=machine.sim.process(proc()))
    return ops


def cache_flush():
    """8 MiB through one cache file, flushed in 32 KiB chunks."""
    from repro.cache.cachefile import CacheState
    from repro.cache.policy import CachePolicy
    from repro.config import small_testbed
    from repro.machine import Machine
    from repro.mpi.process import MPIWorld

    machine = Machine(small_testbed())
    world = MPIWorld(machine)
    policy = CachePolicy(
        enabled=True,
        coherent=False,
        flush_mode="flush_immediate",
        discard_on_close=True,
        cache_path="/scratch",
        sync_chunk=32 * KiB,
    )
    state = CacheState(machine, 0, machine.pfs.create("/g/probe"), policy, world.comm)

    def proc():
        greq = yield from state.write_through_cache(0, 8 * MiB, None)
        yield from greq.wait()

    machine.sim.run(until=machine.sim.process(proc()))
    return 8 * MiB // (32 * KiB)


def mpi_alltoall():
    """64 ranks, 32 alltoalls each (model-mode collectives)."""
    from repro.config import small_testbed
    from repro.machine import Machine
    from repro.mpi.process import MPIWorld

    world = MPIWorld(Machine(small_testbed(8, 8)))
    rounds = 32

    def body(ctx):
        for _ in range(rounds):
            yield from ctx.comm.alltoall(ctx.rank, [ctx.rank] * ctx.nprocs)

    world.run(body)
    return 64 * rounds


def _strided(rank: int, nprocs: int, block: int, reps: int):
    import numpy as np

    from repro.access import RankAccess

    offsets = np.arange(reps, dtype=np.int64) * (nprocs * block) + rank * block
    return RankAccess(offsets, np.full(reps, block, dtype=np.int64))


def romio_round():
    """32 ranks write one strided file (64 x 16 KiB each), two-phase, 4 rounds."""
    from repro.config import small_testbed
    from repro.machine import Machine
    from repro.mpi.process import MPIWorld
    from repro.romio.file import MPIIOLayer

    machine = Machine(small_testbed(8, 4))
    world = MPIWorld(machine)
    layer = MPIIOLayer(machine, world.comm, driver="beegfs", exchange_mode="model")
    hints = {
        "cb_nodes": "8",
        "cb_buffer_size": str(MiB),
        "romio_cb_write": "enable",
        "striping_unit": str(256 * KiB),
        "striping_factor": "4",
    }
    patterns = [_strided(r, 32, 16 * KiB, 64) for r in range(32)]

    def body(ctx):
        fh = yield from layer.open(ctx.rank, "/g/probe", hints)
        yield from fh.write_all(patterns[ctx.rank])
        yield from fh.close()

    world.run(body)
    return 32


def access_build():
    """128 ranks build 1024-extent strided views and slice 8 windows each."""
    nprocs, block, reps = 128, 2 * KiB, 1024
    span = nprocs * block * reps
    for rank in range(nprocs):
        access = _strided(rank, nprocs, block, reps)
        for w in range(8):
            access.slice_window(w * span // 8, (w + 1) * span // 8)
    return nprocs


def fleet_sched():
    """256 jobs of 1/2/4 nodes through a 16-node backfilling scheduler."""
    from collections import deque
    from types import SimpleNamespace

    from repro.fleet import FleetScheduler

    running = deque()
    sched = FleetScheduler(16, lambda job, placement: running.append(placement))
    jobs = 256
    for i in range(jobs):
        sched.submit(SimpleNamespace(job_id=i, nodes=(1, 2, 4)[i % 3]))
    while running:
        sched.release(running.popleft())
    return jobs


#: (metric stem, load, unit of the timing, seconds -> that unit)
PROBES = (
    ("sim.probe_dispatch", sim_dispatch, "ns_per_event", 1e9),
    ("net.probe_funnel", net_funnel, "us_per_wave", 1e6),
    ("pfs.probe_write", pfs_write, "us_per_rpc", 1e6),
    ("localfs.probe_write", localfs_write, "us_per_op", 1e6),
    ("cache.probe_flush", cache_flush, "us_per_chunk", 1e6),
    ("mpi.probe_alltoall", mpi_alltoall, "us_per_rank", 1e6),
    ("romio.probe_round", romio_round, "us_per_rank", 1e6),
    ("access.probe_build", access_build, "us_per_rank", 1e6),
    ("fleet.probe_sched", fleet_sched, "us_per_job", 1e6),
)


def fleet_events_per_cpu_s(fleet_size: int, seed: int) -> float:
    from repro.fleet.runner import FleetSpec, run_fleet

    cpu0 = time.process_time()
    result = run_fleet(FleetSpec(fleet_size=fleet_size, scale=0.03125, seed=seed))
    return result.events / (time.process_time() - cpu0)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("seed", type=int)
    ap.add_argument("--smoke", action="store_true", help="one repetition, tiny fleets")
    args = ap.parse_args(argv)
    out = {}
    for stem, load, unit, scale in PROBES:
        load()  # warm: lazy imports and first-call costs are not the layer's
        best = float("inf")
        for _ in range(1 if args.smoke else REPS):
            cpu0 = time.process_time()
            items = load()
            best = min(best, (time.process_time() - cpu0) / items)
        profile = cProfile.Profile()
        profile.enable()
        load()
        profile.disable()
        out[f"{stem}_{unit}"] = best * scale
        out[f"{stem}.calls"] = sum(e.callcount for e in profile.getstats())
    small, large = (2, 8) if args.smoke else (20, 80)
    reference = fleet_events_per_cpu_s(small, args.seed)
    out["fleet.flatness"] = fleet_events_per_cpu_s(large, args.seed) / reference
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
