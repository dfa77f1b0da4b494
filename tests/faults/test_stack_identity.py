"""The named fault matrix on both stacks: production == reference.

Every point of the 3-benchmark x 8-scenario matrix runs once on the
production stack and once on ``reference=True`` (heapq engine, naive
fabric, chunked plane, one process per rank).  Bandwidths, recovery
accounting, checksums and invariant reports must be equal; only the
diagnostic ``events`` count may differ.
"""

from __future__ import annotations

import pytest

from repro.experiments.faultsweep import fault_matrix_specs, run_fault_experiment

MATRIX = fault_matrix_specs(benchmarks=("ior", "flash_io", "coll_perf"), scale=0.125)


def comparable(result) -> dict:
    d = result.to_dict()
    d.pop("events")
    return d


def test_matrix_is_three_benchmarks_by_eight_scenarios():
    assert len(MATRIX) == 24
    assert {s.benchmark for s in MATRIX} == {"ior", "flash_io", "coll_perf"}


@pytest.mark.parametrize("spec", MATRIX, ids=lambda s: f"{s.benchmark}-{s.scenario}")
def test_production_matches_reference(spec):
    production = run_fault_experiment(spec)
    reference = run_fault_experiment(spec, reference=True)
    assert comparable(production) == comparable(reference)
