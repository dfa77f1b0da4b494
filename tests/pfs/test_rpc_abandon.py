"""A sync write abandoned while its server RPC waits for, or holds, a worker.

``PFSClient.write_sync_flat`` hands its caller's chain event to
``DataServer.serve_write`` as the RPC's ``done``: abandoning the write
withdraws the RPC's queued worker request at once, or gives a held worker
back at the interrupt kick, and the RPC takes no later step.  The reference
stack's generator (``repro.reference.write_sync``) is interrupted at the same
instant; both must leave every worker free and agree on everything but their
event counts, which differ by design (the generator fires process and
timeout events the chain does not) and are pinned per stack.
"""

from dataclasses import replace

import pytest

from repro import reference
from repro.config import small_testbed
from repro.machine import Machine
from repro.sim.core import Interrupt
from repro.units import KiB, MiB
from tests.conftest import sync_write

#: Where the victim's RPC is when it is interrupted: ``(workers.in_use,
#: workers.queue_len, holder finished)`` on its server, polled every 50 µs.
PHASES = {"queued": (1, 1, False), "held": (1, 0, True)}
#: ``events_fired`` of each run (production, reference): an abandoned RPC
#: that took a later step would fire more.
EVENTS = {"queued": (172, 205), "held": (399, 431)}


def interrupted_sync_write(reference_stack: bool, phase: str) -> dict:
    """One server with one worker and a one-chunk write-back cache.  A
    pipelined 512 KiB write holds the worker through its throttled absorb
    while a 32 KiB sync write's RPC arrives behind it; the sync write is
    interrupted in ``phase``."""
    cfg = small_testbed(num_nodes=2, procs_per_node=1)
    cfg = cfg.scaled(
        pfs=replace(
            cfg.pfs,
            num_server_workers=1,
            server_cache_bytes=16 * KiB,
            server_drain_chunk=16 * KiB,
            jitter_sigma=0.0,
        )
    )
    machine = Machine(cfg, reference=reference_stack)
    sim = machine.sim
    f = machine.pfs.create("/g/f", stripe_size=MiB, stripe_count=1)
    workers = machine.pfs.servers[f.layout.first_target].workers
    finished = {}

    def holder():
        yield machine.pfs_client(0).write(f, 0, 512 * KiB, locking=False)
        finished["holder"] = sim.now

    def victim():
        client = machine.pfs_client(1)
        try:
            if reference_stack:
                yield from reference.write_sync(client, f, 512 * KiB, 32 * KiB)
            else:
                yield sync_write(client, f, 512 * KiB, 32 * KiB)
        except Interrupt:
            finished["victim"] = ("interrupted", sim.now)

    sim.process(holder())
    proc = sim.process(victim())
    seen = []

    def kill():
        if (workers.in_use, workers.queue_len, "holder" in finished) != PHASES[phase]:
            sim.call_later(50e-6, kill)
            return
        seen.append((sim.now, workers.in_use, workers.queue_len))
        proc.interrupt("crash")
        seen.append((sim.now, workers.in_use, workers.queue_len))
        sim.call_soon(lambda: seen.append((sim.now, workers.in_use, workers.queue_len)))

    sim.call_later(1e-3, kill)
    sim.run()
    server = machine.pfs.servers[f.layout.first_target]
    return {
        "seen": seen,
        "finished": finished,
        "workers": (workers.in_use, workers.queue_len),
        "served": (server.rpcs_served, server.cache.dirty, server.target.bytes_written),
        "persisted": list(f.persisted),
        "events": sim.events_fired,
    }


@pytest.mark.parametrize("phase", sorted(PHASES))
def test_an_abandoned_sync_write_lets_go_of_its_worker(phase):
    production = interrupted_sync_write(False, phase)
    oracle = interrupted_sync_write(True, phase)
    assert (production.pop("events"), oracle.pop("events")) == EVENTS[phase]
    assert production == oracle
    (when, *before), (_, *at_interrupt), (_, *one_hop_later) = production["seen"]
    if phase == "queued":
        assert before == [1, 1]
        assert at_interrupt == one_hop_later == [1, 0]  # withdrawn at once
    else:
        assert before == at_interrupt == [1, 0]
        assert one_hop_later == [0, 0]  # returned where the generator's finally ran
    assert production["finished"]["victim"] == ("interrupted", when)
    assert production["workers"] == (0, 0)
    # Only the holder's RPC was served: the victim's took no later step.
    assert production["served"] == (1, 0, 512 * KiB)
    assert production["persisted"] == [(0, 512 * KiB)]
