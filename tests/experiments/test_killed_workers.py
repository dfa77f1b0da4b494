"""A harness survives its workers dying: only complete rows are cached.

A sweep point and a fleet's per-job row are each stored the moment they
resolve, atomically (temp file + rename).  So a ``SweepRunner`` whose pool
worker is SIGKILLed mid-stream, or a ``run_fleet`` killed while streaming
its rows, leaves a cache that holds every row that finished and nothing
half-written; a re-run simulates exactly the missing points (a fleet, being
one simulation, fills exactly the missing rows, equal to those kept).
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time

import pytest

from repro.experiments.parallel import SweepError, SweepRunner
from repro.experiments.resultcache import ResultCache
from repro.experiments.runner import ExperimentSpec
from repro.fleet import FleetRowSpec, run_fleet
from tests.experiments.test_resultcache import fake_result
from tests.fleet.test_fleet import SMOKE

TINY = dict(scale=0.02, flush_batch_chunks=16)
SPECS = [
    ExperimentSpec("ior", cache_mode=mode, num_files=files, **TINY)
    for files in (1, 2)
    for mode in ("disabled", "enabled", "theoretical")
]
VICTIM = SPECS[2]


def _killed_mid_stream(spec, config):
    """Pool worker (module level: picklable): the victim's worker dies by
    SIGKILL a beat after taking it, once the points before it are in."""
    if spec == VICTIM and multiprocessing.parent_process() is not None:
        time.sleep(0.5)
        os.kill(os.getpid(), signal.SIGKILL)
    return fake_result(spec)


def _fake_worker(spec, config):
    return fake_result(spec)


def records(root):
    """(complete records, leftover temp files) under a cache root."""
    return sorted(root.glob("??/*.json")), sorted(root.glob("??/*.tmp"))


def test_a_killed_pool_worker_leaves_only_complete_rows(tmp_path):
    runner = SweepRunner(
        jobs=2, cache=ResultCache(root=tmp_path), worker=_killed_mid_stream, retries=0
    )
    with pytest.raises(SweepError) as err:
        runner.run(SPECS)
    failed = [spec for spec, _ in err.value.failures]
    assert VICTIM in failed

    cache = ResultCache(root=tmp_path)
    cached = [s for s in SPECS if cache.get(s, s.cluster()) is not None]
    assert cache.corrupt == 0
    assert sorted(cached + failed, key=SPECS.index) == SPECS
    assert SPECS[:2] == cached[:2]  # cut in the middle of the stream
    complete, leftovers = records(tmp_path)
    assert len(complete) == len(cached) and not leftovers

    sources = {}
    rerun = SweepRunner(
        jobs=2,
        cache=ResultCache(root=tmp_path),
        worker=_fake_worker,
        progress=lambda done, total, spec, src: sources.setdefault(src, []).append(spec),
    )
    results = rerun.run(SPECS)
    assert rerun.simulated == len(failed)
    assert sources == {"cache": cached, "run": failed}
    assert [r.to_dict() for r in results] == [fake_result(s).to_dict() for s in SPECS]


def _fleet_killed_in_row(root: str, row: int) -> None:
    """Run the smoke fleet streaming its rows into ``root`` and die by
    SIGKILL inside the ``row``-th row's store: its temp file written, not
    yet renamed into place."""
    rename, calls = os.replace, []

    def replace(src, dst):
        calls.append(dst)
        if len(calls) == row:
            os.kill(os.getpid(), signal.SIGKILL)
        rename(src, dst)

    os.replace = replace  # this forked child only
    run_fleet(SMOKE, row_cache=ResultCache(root=root))


def test_a_fleet_killed_while_streaming_rows_keeps_only_complete_rows(tmp_path):
    child = multiprocessing.get_context("fork").Process(
        target=_fleet_killed_in_row, args=(str(tmp_path), 4)
    )
    child.start()
    child.join(timeout=120)
    assert not child.is_alive() and child.exitcode == -signal.SIGKILL

    cfg = SMOKE.cluster()
    keys = [FleetRowSpec(SMOKE, job) for job in range(SMOKE.fleet_size)]
    cache = ResultCache(root=tmp_path)
    kept = {key.job_id: cache.get(key, cfg) for key in keys}
    kept = {job: row for job, row in kept.items() if row is not None}
    assert len(kept) == 3 and cache.corrupt == 0
    complete, leftovers = records(tmp_path)
    assert len(complete) == 3 and len(leftovers) == 1  # the row the kill cut

    result = run_fleet(SMOKE, row_cache=ResultCache(root=tmp_path))
    assert result.streamed_rows == SMOKE.fleet_size
    refilled = ResultCache(root=tmp_path)
    assert all(refilled.get(key, cfg) is not None for key in keys)
    for job, row in kept.items():
        assert row.to_dict() == result.jobs[job].to_dict()
