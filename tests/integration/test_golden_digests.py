"""Golden digests: host-side rewrites must not move a single result field.

Each point pins the SHA-256 of its public result (every field except the
kernel event count, which legitimately differs between the stacks) and the
exact event count of each stack.  A change that is meant to be host-only —
a new kernel, a memo, a different loop order — must reproduce them bit for
bit.  A change that is meant to move simulated results re-records them and
names every digest and count it moved in CHANGES.md, which keeps the
history of every re-record.  The sizes are the ``noncontig_grid4`` /
``faults_payload24`` ones of ``benchmarks/e2e``, plus three points of its
heaviest workload, ``ior_grid6``; ``tests/integration/test_digest_table.py``
holds the fault matrix, the chaos seeds and the 80-job fleet to the same
rule.

**Two stacks.**  Every case runs twice: on the production stack and on the
reference stack (``reference=True``: heapq engine, naive fabric, every
grant, release and chunk an event, per-rank collective release, generator
sync threads, one process per rank).  The digest is everybody's; the event
count is recorded per stack — ``(production, reference)``.
"""

import pytest

from repro import options
from repro.experiments.faultsweep import fault_matrix_specs, run_fault_experiment
from repro.experiments.runner import ExperimentSpec, run_experiment
from repro.fleet.runner import FleetSpec, run_fleet
from repro.units import MiB
from tests.conftest import load_tool

digests = load_tool("digests")  # the digest table's ``digest`` and ``agreed``
digest = digests.digest

# Device-tier switches move timings by design (docs/DEVICES.md); a value
# outside a variable's domain fails here rather than skipping.
pytestmark = pytest.mark.skipif(
    options.get("REPRO_SSD") != "stream" or options.get("REPRO_CACHE_KIND") != "extent",
    reason="golden digests are recorded on the default device tier",
)

STACKS = (False, True)  # reference=


GRID = {
    # (benchmark, cache mode, scale): ((production, reference) events, digest)
    ("coll_perf", "disabled", 0.03125): (
        (3333, 11935),
        "1699b6529e27d2dd781f3ba61653bf11a29b3b8d0651fadfe5685e59dd354cff",
    ),
    ("coll_perf", "enabled", 0.03125): (
        (5291, 14588),
        "7deeddef1c491237652183bd7ce805e71ba84284b8205f500d63b40607b44d07",
    ),
    ("coll_perf", "theoretical", 0.03125): (
        (1492, 9417),
        "025f3f11af8d80e1a29007d5387b0f32344b14f39012ae2e7ae8415c2a08a8ba",
    ),
    ("flash_io", "enabled", 0.0125): (
        (4307, 107254),
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
        (26903, 145527),
        "7e9b43acb8deb4d10000c95d7f6bc5b58a362c8ca820817792c685c997fb1ecd",
    ),
    (64, "enabled"): (
        (29271, 60396),
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
    shared = digests.agreed(f"ior agg{aggregators}-{mode}", production, reference)
    assert events[0] < events[1]
    if IOR_GRID6[point] is not None:
        assert events == IOR_GRID6[point][0]
        assert shared == IOR_GRID6[point][1]


# ((production, reference) events, digest of FleetResult.identity())
FLEET = ((4164, 8709), "8030563a0dfbbc8fcdf009a13ff1620127876d2fdd0eda3892829a2540b68614")


def test_fleet_of_eight():
    for reference, events in zip(STACKS, FLEET[0]):
        result = run_fleet(FleetSpec(fleet_size=8, scale=0.03125, seed=2016), reference=reference)
        assert digest(result.identity()) == FLEET[1]
        assert result.events == events
        assert result.stack == ("reference" if reference else "production")


# flash_io / agg_crash at scale 0.5
FAULT = ((2432, 4849), "2e3794b3c5d0fbb667550f779c9d5f03fcdf9b4dcff955bee0675dca32545d88")


def test_flash_io_agg_crash():
    (spec,) = fault_matrix_specs(
        benchmarks=("flash_io",), scenarios=("agg_crash",), scale=0.5, seed=2016
    )
    for reference, events in zip(STACKS, FAULT[0]):
        result = run_fault_experiment(spec, reference=reference)
        assert result.crashed and result.recovered and result.integrity_ok
        assert digest(result.to_dict()) == FAULT[1]
        assert result.events == events
