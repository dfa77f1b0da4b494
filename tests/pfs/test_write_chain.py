"""``PFSClient.write`` as one callback chain.

The chain replaced a process per RPC group and per server RPC.  These tests
pin what must not have moved: the uncontended closed form, the order in
which same-instant writers reach each server's worker FIFO and jitter
stream (against the generator ``repro.reference.serve_write`` as oracle), a stalled
server's RPC waiting out its stall on the chain, and what an interrupted
waiter leaves behind.
"""

from dataclasses import replace

import pytest

from repro import reference
from repro.config import small_testbed
from repro.faults.spec import FaultSchedule, FaultSpec
from repro.machine import Machine
from repro.pfs.filesystem import PFSFile
from repro.pfs.layout import StripeLayout
from repro.pfs.server import DataServer
from repro.sim.core import Interrupt
from repro.units import KiB, MiB


def quiet_config(**overrides):
    cfg = small_testbed(**overrides)
    return cfg.scaled(pfs=replace(cfg.pfs, jitter_sigma=0.0))


def create(machine, path="/g/a"):
    client = machine.pfs_client(0)
    return machine.sim.run(until=machine.sim.process(client.create(path)))


class TestClosedForm:
    """Uncontended: ``overhead * nruns + fill + max(flow, serve)``."""

    def timed_write(self, machine, f, nbytes):
        client = machine.pfs_client(0)

        def proc():
            t0 = machine.sim.now
            yield client.write(f, 0, nbytes, locking=False)
            return machine.sim.now - t0

        return machine.sim.run(until=machine.sim.process(proc()))

    def test_flow_bound(self):
        machine = Machine(quiet_config())
        pfs, net = machine.config.pfs, machine.config.network
        f = create(machine)
        elapsed = self.timed_write(machine, f, 16 * MiB)  # one 4 MiB run per server
        rate = min(pfs.per_client_max_bw / 4, net.nic_bw / 4, pfs.server_ingest_bw)
        flow = 4 * MiB / rate + net.latency
        assert flow > pfs.rpc_overhead
        fill = 512 * KiB / pfs.per_client_max_bw
        assert elapsed == pytest.approx(4 * pfs.client_rpc_overhead + fill + flow, rel=1e-9)
        assert machine.pfs_client(0).rpcs == 4

    def test_server_bound(self):
        machine = Machine(quiet_config())
        pfs, net = machine.config.pfs, machine.config.network
        f = create(machine)
        elapsed = self.timed_write(machine, f, KiB)
        fill = KiB / pfs.per_client_max_bw
        assert KiB / pfs.per_client_max_bw + net.latency < pfs.rpc_overhead
        assert elapsed == pytest.approx(
            pfs.client_rpc_overhead + fill + pfs.rpc_overhead, rel=1e-9
        )

    def test_bundled_runs(self):
        """Eight targets on four servers: on the bulk plane each server's two
        equal runs travel as one flow of weight two, and the time is the same
        either way."""
        machine = Machine(quiet_config())
        pfs, net = machine.config.pfs, machine.config.network
        f = PFSFile("/g/wide", StripeLayout(MiB, 8))
        elapsed = self.timed_write(machine, f, 8 * MiB)
        rate = min(pfs.per_client_max_bw / 8, net.nic_bw / 8, pfs.server_ingest_bw / 2)
        fill = 512 * KiB / pfs.per_client_max_bw
        assert elapsed == pytest.approx(
            8 * pfs.client_rpc_overhead + fill + MiB / rate + net.latency, rel=1e-9
        )
        assert machine.pfs_client(0).rpcs == 8
        assert [s.rpcs_served for s in machine.pfs.servers] == [2, 2, 2, 2]
        assert f.persisted.covers(0, 8 * MiB)


def same_instant_writers(monkeypatch, generator_serve):
    """64 ranks write 16 MiB each at one instant; returns every observable
    of the order in which their RPCs were served."""
    draws, served = [], []
    real_draw, real_account = DataServer.draw_rpc_jitter, DataServer.account

    def draw(self):
        value = real_draw(self)
        draws.append((self.server_id, self.sim.now, value))
        return value

    def account(self, tag, nbytes, rpc_count):
        served.append((self.server_id, tag, self.sim.now))
        real_account(self, tag, nbytes, rpc_count)

    monkeypatch.setattr(DataServer, "draw_rpc_jitter", draw)
    monkeypatch.setattr(DataServer, "account", account)
    if generator_serve:

        def as_process(self, target_offset, nbytes, on_done, done=None, rpc_count=1, tag=None):
            proc = self.sim.process(
                reference.serve_write(self, target_offset, nbytes, rpc_count, tag), name="srv-w"
            )
            proc.callbacks.append(lambda _ev: on_done())

        monkeypatch.setattr(DataServer, "serve_write", as_process)

    machine = Machine(small_testbed(num_nodes=8, procs_per_node=8))
    f = create(machine)
    finished = {}

    def writer(rank):
        client = machine.pfs_client(rank)
        client.tag = f"r{rank}"
        yield client.write(f, rank * 16 * MiB, 16 * MiB)
        finished[rank] = machine.sim.now

    for rank in range(64):
        machine.sim.process(writer(rank))
    machine.sim.run()
    assert len(finished) == 64 and len(served) == 256
    return draws, served, finished, machine.sim.events_fired


def test_same_instant_writers_are_served_in_generator_order(monkeypatch):
    with monkeypatch.context() as patch:
        chain = same_instant_writers(patch, generator_serve=False)
    with monkeypatch.context() as patch:
        oracle = same_instant_writers(patch, generator_serve=True)
    assert chain[0] == oracle[0]  # every jitter draw: server, instant, value
    assert chain[1] == oracle[1]  # every RPC: server, rank, completion instant
    assert chain[2] == oracle[2]  # every writer's completion instant
    assert chain[3] < oracle[3]  # and the oracle really ran the processes


class TestStalledServer:
    STALL = 0.05

    def run(self, monkeypatch, faults):
        served, names = {}, []
        real_account = DataServer.account

        def account(self, tag, nbytes, rpc_count):
            served[self.server_id] = self.sim.now
            real_account(self, tag, nbytes, rpc_count)

        monkeypatch.setattr(DataServer, "account", account)
        machine = Machine(small_testbed(), faults=faults)
        f = create(machine)
        real_process = type(machine.sim).process

        def process(sim, gen, name=""):
            names.append(name)
            return real_process(sim, gen, name)

        monkeypatch.setattr(type(machine.sim), "process", process)
        client = machine.pfs_client(0)

        def writer():
            yield client.write(f, 0, 16 * MiB)

        machine.sim.run(until=machine.sim.process(writer()))
        return machine, client, served, names

    def test_only_the_stalled_servers_rpc_waits(self, monkeypatch):
        """Server 1 is stalled: its RPC waits out the stall on the chain,
        holding its worker — no process anywhere — and the other three are
        served at the instants a fault-free machine serves them."""
        stall = FaultSchedule(
            faults=(FaultSpec("server_stall", target=1, start=0.0, duration=self.STALL),)
        )
        with monkeypatch.context() as patch:
            machine, client, served, names = self.run(patch, stall)
        with monkeypatch.context() as patch:
            _, healthy_client, healthy, healthy_names = self.run(patch, None)
        assert client.rpcs == healthy_client.rpcs == 4
        assert names == healthy_names == [""]  # the writer; no "srv-w"
        assert machine.faults.injected == 1  # one RPC passed the gate once, stalled
        assert served[1] >= self.STALL > healthy[1]
        assert {s: served[s] for s in (0, 2, 3)} == {s: healthy[s] for s in (0, 2, 3)}
        assert machine.sim.now >= self.STALL
        assert all(s.workers.in_use == 0 for s in machine.pfs.servers)


def test_interrupted_waiter_leaves_nothing_held(monkeypatch):
    """Aggregator crash mid-write: the chain runs out on its own, every
    worker it took comes back, the stripes are released exactly once and
    the file never learns of the write."""
    machine = Machine(quiet_config())
    pfs = machine.config.pfs
    f = create(machine)
    client = machine.pfs_client(0)
    sim, locks = machine.sim, machine.pfs.locks

    released = []
    real_release = locks.release

    def release(file_id, stripe, exclusive=True):
        released.append(stripe)
        real_release(file_id, stripe, exclusive)

    monkeypatch.setattr(locks, "release", release)
    monkeypatch.setattr(
        PFSFile, "record_write", lambda *a: pytest.fail("record_write after an interrupt")
    )
    seen = {}

    def writer():
        try:
            yield client.write(f, 0, 16 * MiB, locking=True)
        except Interrupt as exc:
            seen["cause"] = exc.cause

    def crash(victim):
        # Past the four lock RPCs, the client overhead and the pipeline
        # fill: every server RPC holds a worker, every flow is in flight.
        fill = 512 * KiB / pfs.per_client_max_bw
        yield sim.timeout(
            4 * pfs.lock_rpc_time + 4 * pfs.client_rpc_overhead + fill + pfs.rpc_overhead / 2
        )
        seen["workers"] = [s.workers.in_use for s in machine.pfs.servers]
        seen["held"] = [locks.held(f.file_id, s) for s in range(4)]
        victim.interrupt("crash")

    victim = sim.process(writer())
    sim.process(crash(victim))
    sim.run()
    assert seen == {"cause": "crash", "workers": [1, 1, 1, 1], "held": ["write"] * 4}
    assert sorted(released) == [0, 1, 2, 3]
    assert locks.snapshot() == []
    assert all(s.workers.in_use == 0 and s.workers.queue_len == 0 for s in machine.pfs.servers)
    assert [s.rpcs_served for s in machine.pfs.servers] == [1, 1, 1, 1]
    assert machine.fabric.active_flows == 0
    assert f.size == 0 and f.persisted.total == 0 and client.bytes_written == 0

    monkeypatch.undo()
    sim.run(until=client.write(f, 0, 16 * MiB, locking=True))
    assert f.persisted.covers(0, 16 * MiB)
