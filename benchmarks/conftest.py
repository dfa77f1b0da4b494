"""Benchmark harness configuration.

Each ``bench_figNN_*`` module regenerates one figure of the paper's
evaluation section and prints the measured table next to the paper's
expectations.  Figures draw their measurement points through a shared
:class:`~repro.experiments.parallel.SweepRunner`, so points are memoised
across modules (one pytest session) *and* persisted in ``.repro_cache/``
across sessions — a re-run of the figure benches on a warm cache performs
zero simulations.

Options (``pytest benchmarks/ --scale 1 --full-sweep`` is the paper size):

* ``--scale``      — data-volume scale (default 0.125; 1.0 = the paper's
  32 GB files; compute delay scales with it).
* ``--full-sweep`` — run the paper's full 4×5 aggregator×buffer grid
  instead of the 4×3 quick grid.

Environment (``repro.options``): ``REPRO_JOBS`` — parallel sweep workers
(default 1); ``REPRO_CACHE=0`` — disable the on-disk result cache (force
fresh simulation); ``REPRO_CACHE_DIR`` relocates it.
"""

import pytest

from repro import options
from repro.experiments.figures import (
    FULL_SWEEP,
    QUICK_AGGREGATORS,
    QUICK_CB_SIZES,
    get_default_runner,
)
from repro.experiments.runner import DEFAULT_SCALE


def pytest_addoption(parser):
    parser.addoption(
        "--scale",
        type=float,
        default=DEFAULT_SCALE,
        help="data-volume scale of the figure benches (1.0 = paper)",
    )
    parser.addoption(
        "--full-sweep",
        action="store_true",
        help="run the paper's full 4x5 aggregator x buffer grid",
    )


def pytest_configure(config):
    refusal = options.refusal()
    if refusal is not None:
        raise pytest.UsageError(refusal)


@pytest.fixture(scope="session")
def figure_sweep(pytestconfig):
    """``(aggregators, cb_sizes, scale)`` for the seven ``bench_fig*`` modules."""
    if pytestconfig.getoption("full_sweep"):
        aggs, cbs = FULL_SWEEP
    else:
        aggs, cbs = QUICK_AGGREGATORS, QUICK_CB_SIZES
    return aggs, cbs, pytestconfig.getoption("scale")


@pytest.fixture(scope="session")
def sweep_runner():
    """The SweepRunner every figure call in this session goes through."""
    return get_default_runner()


def run_once(benchmark, fn):
    """Run a figure generator exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
