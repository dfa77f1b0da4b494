"""Parallel sweep execution: fan measurement points over a process pool.

Every measurement point is an independent, single-threaded, deterministic
simulation, so the paper's 4×5 aggregator×buffer grid × 3 cache modes × 3
benchmarks (~180 points) is embarrassingly parallel: :class:`SweepRunner`
fans the misses out over a :class:`~concurrent.futures.ProcessPoolExecutor`
and collects results **in input order**, so ``--jobs 8`` output is
byte-identical to a serial run.

Robustness model (CI is the main consumer):

* identical specs in one sweep are simulated once (figure sweeps share
  points between bandwidth and breakdown tables);
* points already in the :class:`~repro.experiments.resultcache.ResultCache`
  are not simulated at all, and each fresh point is stored the moment it
  resolves (atomically), so a sweep cut short keeps what it finished;
* a point whose worker crashes (or whose pool dies — e.g. the OOM killer
  taking out a worker breaks every pending future) is retried once *inline*
  in the parent process, where a plain exception with a traceback beats a
  ``BrokenProcessPool``;
* a per-point ``timeout`` (seconds, pool mode only) turns a hung simulation
  into a retryable failure instead of a wedged pipeline.  The stuck worker
  process is abandoned, not killed — acceptable for CI, where the job has a
  global timeout anyway.

Only if a point fails *again* on the inline retry does the sweep raise
:class:`SweepError`, carrying every failed spec.

Paper correspondence: none (harness infrastructure); it fans the §IV
measurement grid over worker processes.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from functools import partial
from typing import Callable, Iterable, Optional, Sequence

from repro import options
from repro.config import ClusterConfig
from repro.experiments.resultcache import ResultCache, cache_key

# Progress-callback sources, in the order a point can encounter them.
SOURCE_CACHE = "cache"  # served from the on-disk result cache
SOURCE_RUN = "run"  # simulated (pool worker or inline serial path)
SOURCE_RETRY = "retry"  # simulated inline after a crash/timeout
SOURCE_DUP = "dup"  # duplicate of an earlier spec in the same sweep

ProgressFn = Callable[[int, int, object, str], None]


class SweepError(RuntimeError):
    """One or more measurement points failed even after the inline retry."""

    def __init__(self, failures: Sequence[tuple[object, BaseException]]):
        self.failures = list(failures)
        detail = "; ".join(
            f"{spec.benchmark}/{spec.label}/{spec.cache_mode}: {err!r}"
            for spec, err in self.failures
        )
        super().__init__(f"{len(self.failures)} sweep point(s) failed: {detail}")


def run_point(spec, config: Optional[ClusterConfig], cache: Optional[ResultCache] = None):
    """Run any point spec: module-level, so the pool pickles it by reference."""
    return spec.run(config, cache)


def default_jobs() -> int:
    """Library worker count: ``REPRO_JOBS``, default 1 (serial)."""
    return options.get("REPRO_JOBS") or 1


class SweepRunner:
    """Run a list of point specs, possibly in parallel.

    A point spec — :class:`ExperimentSpec`,
    :class:`~repro.experiments.faultsweep.FaultExperimentSpec`,
    :class:`~repro.chaos.runner.ChaosTrialSpec` or
    :class:`~repro.fleet.runner.FleetSpec` — names its cluster
    (``spec.cluster(config)``, which the cache key fingerprints), its run
    (``spec.run(config, cache)``: a fleet streams its rows to ``cache``) and
    its record type (``record_type``, which the cache decodes a hit as), so
    one runner takes any of them, mixed too.

    Parameters
    ----------
    jobs:
        Pool width.  ``1`` (the default) runs everything inline in this
        process — same code path minus the pool, which keeps debugging sane.
    cache:
        A :class:`ResultCache`; ``None`` selects the process default
        (``.repro_cache/``, honouring ``REPRO_CACHE``/``REPRO_CACHE_DIR``).
        Pass ``ResultCache(enabled=False)`` to force every point to simulate.
    timeout:
        Per-point seconds before a pool worker is declared hung.
    retries:
        Inline re-runs granted to a crashed/hung point (0 or 1 make sense).
    progress:
        ``f(done, total, spec, source)`` called once per point as it
        resolves; ``source`` is one of the ``SOURCE_*`` constants.
    worker:
        The per-point function ``(spec, config) -> record``, by default
        :func:`run_point` over ``cache`` (the spec's own run).  A seam for
        tests that substitute a fake; must be picklable when ``jobs > 1``.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        timeout: Optional[float] = None,
        retries: int = 1,
        progress: Optional[ProgressFn] = None,
        worker: Optional[Callable] = None,
    ):
        self.jobs = max(1, int(jobs))
        self.cache = ResultCache() if cache is None else cache
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.progress = progress
        self.worker = partial(run_point, cache=self.cache) if worker is None else worker
        self.simulated = 0  # points actually run (pool + inline + retries)

    def _report(self, done: int, total: int, spec, source: str):
        if self.progress is not None:
            self.progress(done, total, spec, source)

    def run(
        self,
        specs: Iterable,
        config: Optional[ClusterConfig] = None,
    ) -> list:
        """Resolve every spec to a result, preserving input order.

        A fresh result is stored in the cache the moment it resolves, so a
        sweep cut short — a worker killed, the pool broken, the sweep itself
        interrupted — leaves every point it finished cached, and a re-run
        simulates exactly the rest."""
        specs = list(specs)
        total = len(specs)
        cfgs = [spec.cluster(config) for spec in specs]
        results: list = [None] * total
        done = 0

        def resolved(i: int, result, source: str) -> None:
            nonlocal done
            results[i] = result
            self.simulated += 1
            done += 1
            self.cache.put(specs[i], cfgs[i], result)
            self._report(done, total, specs[i], source)

        # Classify: cache hit, first occurrence (simulate), or duplicate.
        first_of: dict[str, int] = {}
        dup_of: dict[int, int] = {}
        to_run: list[int] = []
        for i, spec in enumerate(specs):
            key = cache_key(spec, cfgs[i])
            if key in first_of:
                dup_of[i] = first_of[key]
                continue
            first_of[key] = i
            hit = self.cache.get(spec, cfgs[i])
            if hit is not None:
                results[i] = hit
                done += 1
                self._report(done, total, spec, SOURCE_CACHE)
            else:
                to_run.append(i)

        failures: list[tuple[int, BaseException]] = []
        if self.jobs == 1 or len(to_run) <= 1:
            for i in to_run:
                try:
                    resolved(i, self.worker(specs[i], config), SOURCE_RUN)
                except Exception as err:
                    failures.append((i, err))
        elif to_run:
            pool = ProcessPoolExecutor(max_workers=min(self.jobs, len(to_run)))
            hung = False
            try:
                futures = {
                    i: pool.submit(self.worker, specs[i], config) for i in to_run
                }
                # Collect in submission order: deterministic, and each
                # future's wait doubles as that point's timeout budget.
                for i in to_run:
                    try:
                        resolved(i, futures[i].result(timeout=self.timeout), SOURCE_RUN)
                    except FuturesTimeoutError as err:
                        futures[i].cancel()
                        hung = True
                        failures.append((i, err))
                    except Exception as err:  # worker raise or BrokenProcessPool
                        failures.append((i, err))
            finally:
                # A clean join on the normal path; only abandon the pool when
                # a worker is known to be hung (waiting would defeat the
                # per-point timeout).
                pool.shutdown(wait=not hung, cancel_futures=True)

        # Inline retry: a fresh, traceable attempt in this process.
        still_failed: list[tuple[object, BaseException]] = []
        for i, err in failures:
            if self.retries > 0:
                try:
                    resolved(i, self.worker(specs[i], config), SOURCE_RETRY)
                    continue
                except Exception as retry_err:
                    err = retry_err
            still_failed.append((specs[i], err))
        if still_failed:
            raise SweepError(still_failed)

        # Satisfy duplicates by reference.
        for i, j in dup_of.items():
            results[i] = results[j]
            done += 1
            self._report(done, total, specs[i], SOURCE_DUP)
        return results  # type: ignore[return-value]  # every slot is filled
