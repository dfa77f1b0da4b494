"""``ClusterConfig`` and its parts reject bad values by field name."""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import ClusterConfig, small_testbed
from repro.machine import Machine
from tests.test_constructor_fuzz import leaves, with_leaf

#: (dotted field, a value just outside its domain)
BAD = [
    ("num_nodes", 0),
    ("procs_per_node", 0),
    ("flush_batch_chunks", 0),
    ("seed", -1),
    ("ssd_kind", "hdd"),
    ("network.nic_bw", -1.0),
    ("network.shm_bw", 0.0),
    ("network.latency", -1e-6),
    ("network.eager_threshold", -1),
    ("ssd.write_bw", 0.0),
    ("ssd.read_bw", 0.0),
    ("ssd.latency", -1e-6),
    ("ssd.capacity", 0),
    ("flash.page_size", 0),
    ("flash.bus_bw", 0.0),
    ("flash.program_page_time", -1e-6),
    ("nvmm.capacity", 0),
    ("nvmm.latency", -1e-6),
    ("nvmm.record_header", -1),
    ("ram.capacity", 0),
    ("ram.memcpy_bw", 0.0),
    ("ram.dirty_ratio", 0.0),
    ("pfs.num_data_servers", 0),
    ("pfs.server_ingest_bw", 0.0),
    ("pfs.server_cache_bytes", 0),
    ("pfs.rpc_overhead", -1e-6),
    ("pfs.sync_client_rtt", -1e-6),
    ("pfs.hdd.stream_bw", 0.0),
    ("pfs.hdd.capacity", 0),
    ("pfs.hdd.seek_time", -1e-6),
]


@pytest.mark.parametrize("path, value", BAD, ids=[p for p, _ in BAD])
def test_a_bad_value_is_rejected_by_name(path, value):
    with pytest.raises(ValueError, match=path.rsplit(".", 1)[-1]):
        with_leaf(small_testbed(), tuple(path.split(".")), value)


def leaf(cfg, path):
    for name in path:
        cfg = getattr(cfg, name)
    return cfg


NUMERIC = [
    path for path in leaves(ClusterConfig()) if type(leaf(ClusterConfig(), path)) in (int, float)
]


@pytest.mark.parametrize("path", NUMERIC, ids=".".join)
@pytest.mark.parametrize("value", [None, True, "1", float("nan"), float("inf")])
def test_every_number_takes_only_a_finite_number(path, value):
    with pytest.raises(ValueError, match=path[-1]):
        with_leaf(small_testbed(), path, value)


def test_boundary_values_build_a_machine():
    cfg = small_testbed(num_nodes=1, procs_per_node=1, flush_batch_chunks=1, seed=0)
    cfg = with_leaf(cfg, ("network", "latency"), 0.0)
    Machine(cfg)
    assert dataclasses.replace(cfg, ssd_kind="ftl").ssd_kind == "ftl"
