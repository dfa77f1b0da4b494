import pytest

from repro import reference
from repro.config import deep_er_testbed, small_testbed
from repro.machine import Machine
from repro.mpi.process import MPIWorld
from repro.pfs.filesystem import ParallelFileSystem
from repro.reference import HeapSimulator, NaiveFabric
from repro.sim.core import SimError


class TestMachine:
    def test_composition(self):
        m = Machine(small_testbed(4, 2))
        assert len(m.nodes) == 4
        assert len(m.local_fs) == 4
        assert len(m.pfs.servers) == 4
        assert m.config.num_ranks == 8

    def test_fabric_endpoints_cover_servers_and_mds(self):
        cfg = small_testbed(4, 2)
        assert ParallelFileSystem.fabric_endpoints(cfg) == 4 + 4 + 1
        m = Machine(cfg)
        assert m.pfs.servers[-1].fabric_node == 7
        assert m.pfs.mds.fabric_node == 8

    def test_pfs_client_cached_per_rank(self):
        m = Machine(small_testbed())
        assert m.pfs_client(3) is m.pfs_client(3)
        assert m.pfs_client(3) is not m.pfs_client(4)

    def test_client_node_mapping(self):
        m = Machine(small_testbed(4, 2))
        assert m.pfs_client(0).node_id == 0
        assert m.pfs_client(7).node_id == 3

    def test_local_fs_of_rank(self):
        m = Machine(small_testbed(4, 2))
        assert m.local_fs_of_rank(0) is m.local_fs[0]
        assert m.local_fs_of_rank(5) is m.local_fs[2]

    def test_deep_er_shape(self):
        cfg = deep_er_testbed()
        assert cfg.num_nodes == 64
        assert cfg.procs_per_node == 8
        assert cfg.num_ranks == 512
        assert cfg.pfs.num_data_servers == 4

    def test_config_scaled_override(self):
        cfg = deep_er_testbed(seed=7, flush_batch_chunks=4)
        assert cfg.seed == 7
        assert cfg.flush_batch_chunks == 4
        # original defaults untouched (frozen dataclass semantics)
        assert deep_er_testbed().seed == 2016


class TestReferenceStack:
    def test_reference_builds_the_original_stack_as_a_unit(self):
        """heapq ``HeapSimulator`` + ``NaiveFabric`` + no inline grant anywhere,
        per-rank collective release, no bundled stripe runs, generator flush."""
        m = Machine(small_testbed(), reference=True)
        assert m.reference
        assert type(m.sim) is HeapSimulator and type(m.fabric) is NaiveFabric
        assert m.flush is reference.flush
        queues = [dev.queue for node in m.nodes for dev in (node.ssd, node.nvmm)]
        queues += [q for s in m.pfs.servers for q in (s.workers, s.target.queue)]
        assert not any(q.inline_grants or q.try_acquire() for q in queues)
        world = MPIWorld(m)
        assert not world.comm._model.shared_release
        assert not m.pfs_client(0)._bulk
        production = MPIWorld(Machine(small_testbed()))  # engine and fabric decide
        assert production.comm._model.shared_release

    @pytest.mark.parametrize(
        "name",
        ["REPRO_ENGINE", "REPRO_FABRIC", "REPRO_DATAPLANE", "REPRO_SCALE", "REPRO_FULL_SWEEP"],
    )
    @pytest.mark.parametrize("reference", [False, True])
    def test_a_retired_switch_is_refused_by_name(self, name, reference, monkeypatch):
        """An old A/B script must not go silently green on production —
        whatever the variable says, even the value that was the default —
        nor an old sweep script at the default scale or grid."""
        monkeypatch.setenv(name, "slotted")
        replacement = {
            "REPRO_SCALE": "retired: pass `--scale` instead",
            "REPRO_FULL_SWEEP": "retired: pass `--full-sweep` instead",
        }.get(name, "retired in PR 22: pass `reference=True`")
        message = f"{name}='slotted' is set, but {name} was {replacement}"
        with pytest.raises(SimError, match=message):
            Machine(small_testbed(), reference=reference)


class TestTracer:
    def test_disabled_by_default(self):
        m = Machine(small_testbed())
        m.tracer.emit(0.0, "x", "y", detail=1)
        assert len(m.tracer.records) == 0

    def test_enabled_records_and_filters(self):
        m = Machine(small_testbed(), trace=True)
        m.tracer.emit(1.0, "srv", "write", nbytes=10)
        m.tracer.emit(2.0, "srv", "read")
        m.tracer.emit(3.0, "mds", "write")
        assert len(m.tracer.records) == 3
        assert len(list(m.tracer.filter(component="srv"))) == 2
        assert len(list(m.tracer.filter(event="write"))) == 2
        only = list(m.tracer.filter(component="srv", event="write"))
        assert only[0].detail == {"nbytes": 10}
        m.tracer.clear()
        assert len(m.tracer.records) == 0
