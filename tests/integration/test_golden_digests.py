"""Golden digests: host-side rewrites must not move a single result field.

Each point pins the SHA-256 of its public result (every field except the
kernel event count, which legitimately differs between the stacks) and the
exact event count of each stack.  The values were recorded at the commit
*before* the access-table rewrite (PR 14); a change that is meant to be
host-only — a new kernel, a memo, a different loop
order — must reproduce them bit for bit.  A change that is meant to move
simulated results re-records them and says so.  Two event counts (not
digests) were re-recorded when ``PFSClient.write`` became one callback
chain (PR 16): ``coll_perf-disabled`` 8474 → 5786, ``fleet_of_eight``
6155 → 5267; and all six when the write-back stages began waking waiters in
place and draining as one callback chain (PR 17): ``coll_perf-disabled``
5786 → 4678, ``coll_perf-enabled`` 7885 → 7110, ``coll_perf-theoretical``
2901 → 2837, ``flash_io-enabled`` 6416 → 6113, ``fleet_of_eight`` 5267 →
4875, ``flash_io/agg_crash`` 3072 → 2808; and five when the ranks that only
follow became one process per run (PR 18; per follower one init kick, one
completion and one timeout per compute phase fewer):
``coll_perf-disabled`` 4678 → 3337, ``coll_perf-enabled`` 7110 → 5769,
``coll_perf-theoretical`` 2837 → 1496, ``flash_io-enabled`` 6113 → 4772,
``fleet_of_eight`` 4875 → 4848 (``flash_io/agg_crash`` runs a fault
machine, which forms no class: still 2808); and the production column of
every fault-free case when a collective write began to run on its clock
(PR 24; two shared releases a round fewer — ``coll_perf`` runs one round a
file, Flash-IO 24 one-round calls, IOR 4 or 32): ``coll_perf-disabled``
3337 → 3333, ``coll_perf-enabled`` 5769 → 5765, ``coll_perf-theoretical``
1496 → 1492, ``flash_io-enabled`` 4772 → 4676, ``ior agg8-enabled`` 31219 →
31027, ``agg64-enabled`` 33135 → 33111, ``agg64-disabled`` 19464 → 19440,
``fleet_of_eight`` 4848 → 4632 (the reference column and
``flash_io/agg_crash`` keep the round-by-round walk: unchanged).  One digest
(not an event count) was re-recorded when integrity began to be checked
against the access tables instead of a fault-free run's checksums (PR 26):
``flash_io/agg_crash``'s result lost its per-file ``checksums`` field and
gained an empty ``integrity_violations`` list; every other field is equal.

First instalment of ROADMAP item 1a's golden digests (grid + fleet + fault
point); the sizes are the ``noncontig_grid4`` / ``faults_payload24`` ones
of ``benchmarks/e2e``, plus (PR 22) three points of its heaviest workload,
``ior_grid6``.

**Two stacks** (PR 22).  Every case runs twice: on the production stack and
on the reference stack (``reference=True``: heapq engine, naive fabric,
every grant, release and chunk an event, per-rank collective release,
generator sync threads, one process per rank).  The digest is everybody's;
the event count is recorded per stack — ``(production, reference)`` — and
the production one is what every row above is about.  This is the
differential that used to be four CI legs of the whole suite.
"""

import hashlib
import json
import os

import pytest

from repro.experiments.faultsweep import fault_matrix_specs, run_fault_experiment
from repro.experiments.runner import ExperimentSpec, run_experiment
from repro.fleet.runner import FleetSpec, run_fleet
from repro.units import MiB

# Device-tier switches move timings by design (docs/DEVICES.md).
pytestmark = pytest.mark.skipif(
    os.environ.get("REPRO_SSD", "stream") != "stream"
    or os.environ.get("REPRO_CACHE_KIND", "extent") != "extent",
    reason="golden digests are recorded on the default device tier",
)

STACKS = (False, True)  # reference=


def digest(fields: dict) -> str:
    fields = dict(fields)
    fields.pop("events", None)
    blob = json.dumps(fields, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


GRID = {
    # (benchmark, cache mode, scale): ((production, reference) events, digest)
    ("coll_perf", "disabled", 0.03125): (
        (3333, 11935),
        "1699b6529e27d2dd781f3ba61653bf11a29b3b8d0651fadfe5685e59dd354cff",
    ),
    ("coll_perf", "enabled", 0.03125): (
        (5765, 14588),
        "7deeddef1c491237652183bd7ce805e71ba84284b8205f500d63b40607b44d07",
    ),
    ("coll_perf", "theoretical", 0.03125): (
        (1492, 9417),
        "025f3f11af8d80e1a29007d5387b0f32344b14f39012ae2e7ae8415c2a08a8ba",
    ),
    ("flash_io", "enabled", 0.0125): (
        (4676, 107254),
        "9e69c71f23e281a152a3bf146a17ee764bc490e93829bba3ca6e9b3369ba75fe",
    ),
}


@pytest.mark.parametrize("point", sorted(GRID), ids=lambda p: f"{p[0]}-{p[1]}")
def test_grid_point(point):
    benchmark, mode, scale = point
    spec = ExperimentSpec(
        benchmark,
        aggregators=64,
        cb_buffer=16 * MiB,
        cache_mode=mode,
        num_files=2,
        scale=scale,
        seed=2016,
    )
    for reference, events in zip(STACKS, GRID[point][0]):
        result = run_experiment(spec, reference=reference)
        assert digest(result.to_dict()) == GRID[point][1]
        assert result.events == events


IOR_GRID6 = {
    # (aggregators, cache mode) of ``ior_grid6``: 16 MiB buffers, scale
    # 0.125, 3 files, seed 2016: ((production, reference) events, digest)
    (8, "enabled"): (
        (31027, 145527),
        "7e9b43acb8deb4d10000c95d7f6bc5b58a362c8ca820817792c685c997fb1ecd",
    ),
    (64, "enabled"): (
        (33111, 60396),
        "1a1a08d73660f715cc5232a43198d9e5f16cd3c198c2f1fa21195ee156c85366",
    ),
    (64, "disabled"): (
        (19440, 46617),
        "340fc0f1aa4723afb729805fa5844b7b3806cc23424ef4f43560d9af1663dd2d",
    ),
    # the other three: the stacks must agree, nothing is pinned
    (8, "disabled"): None,
    (8, "theoretical"): None,
    (64, "theoretical"): None,
}


@pytest.mark.parametrize("point", sorted(IOR_GRID6), ids=lambda p: f"agg{p[0]}-{p[1]}")
def test_ior_grid6_point(point):
    aggregators, mode = point
    spec = ExperimentSpec(
        "ior",
        aggregators=aggregators,
        cb_buffer=16 * MiB,
        cache_mode=mode,
        num_files=3,
        scale=0.125,
        seed=2016,
    )
    production, reference = (run_experiment(spec, reference=r).to_dict() for r in STACKS)
    events = production.pop("events"), reference.pop("events")
    assert production == reference
    assert events[0] < events[1]
    if IOR_GRID6[point] is not None:
        assert events == IOR_GRID6[point][0]
        assert digest(production) == IOR_GRID6[point][1]


# ((production, reference) events, digest of FleetResult.identity())
FLEET = ((4632, 8709), "8030563a0dfbbc8fcdf009a13ff1620127876d2fdd0eda3892829a2540b68614")


def test_fleet_of_eight():
    for reference, events in zip(STACKS, FLEET[0]):
        result = run_fleet(FleetSpec(fleet_size=8, scale=0.03125, seed=2016), reference=reference)
        assert digest(result.identity()) == FLEET[1]
        assert result.events == events
        assert result.stack == ("reference" if reference else "production")


# flash_io / agg_crash at scale 0.5
FAULT = ((2808, 4849), "2e3794b3c5d0fbb667550f779c9d5f03fcdf9b4dcff955bee0675dca32545d88")


def test_flash_io_agg_crash():
    (spec,) = fault_matrix_specs(
        benchmarks=("flash_io",), scenarios=("agg_crash",), scale=0.5, seed=2016
    )
    for reference, events in zip(STACKS, FAULT[0]):
        result = run_fault_experiment(spec, reference=reference)
        assert result.crashed and result.recovered and result.integrity_ok
        assert digest(result.to_dict()) == FAULT[1]
        assert result.events == events
