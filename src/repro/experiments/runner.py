"""Experiment runner: one paper measurement point = one simulated run.

A point is ``(benchmark, aggregators, cb_buffer, cache mode)`` under the
paper's fixed conditions: 512 ranks on 64 nodes, four equal files per run,
30 s compute delay, stripe 4 MB × 4, 512 KiB sync buffer (Section IV).

``scale`` shrinks the data volume (and the compute delay with it) so the
full figure sweeps run in CI time; all bandwidth ratios are preserved
because every relevant cost is bandwidth-dominated.  ``--scale 1``
reproduces the paper's full 32 GB files.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Optional

from repro.analysis.bandwidth import perceived_bandwidth
from repro.analysis.breakdown import breakdown_from_profiles, merge_breakdowns
from repro.config import Checked, ClusterConfig, deep_er_testbed
from repro.experiments.resultcache import ResultCache, cache_key
from repro.machine import Machine
from repro.mpi.process import MPIWorld
from repro.romio.file import MPIIOLayer
from repro.units import KiB, MiB
from repro.workloads import collperf_workload, flashio_workload, ior_workload
from repro.workloads.phases import PhaseTiming, multi_phase_body

BENCHMARKS = ("coll_perf", "flash_io", "ior")
CACHE_MODES = ("disabled", "enabled", "theoretical")

# The paper's sweep (Section IV): aggregators 8..64, buffers 4..64 MB.
PAPER_AGGREGATORS = (8, 16, 32, 64)
PAPER_CB_SIZES = (4 * MiB, 8 * MiB, 16 * MiB, 32 * MiB, 64 * MiB)

#: The harnesses' data-volume scale (1.0 = the paper's 32 GB files).
DEFAULT_SCALE = 0.125


@dataclass(frozen=True)
class ExperimentSpec(Checked):
    benchmark: str
    aggregators: int = 64
    cb_buffer: int = 16 * MiB
    cache_mode: str = "disabled"
    num_files: int = 4
    compute_delay: float = 30.0
    scale: float = 1.0
    flush_batch_chunks: int = 16
    seed: int = 2016

    _zero_ok = ("seed",)
    # A scale shrinks the paper's volume: 1.0, its 32 GB files, is the top
    # (sizes derived from a huge one overflow).
    _positive = _fractions = ("scale",)

    def __post_init__(self):
        super().__post_init__()
        if self.benchmark not in BENCHMARKS:
            raise ValueError(f"unknown benchmark {self.benchmark!r}")
        if self.cache_mode not in CACHE_MODES:
            raise ValueError(f"unknown cache mode {self.cache_mode!r}")

    @property
    def label(self) -> str:
        """The paper's x-axis label: <aggregators>_<coll_bufsize>."""
        return f"{self.aggregators}_{self.cb_buffer // MiB}M"

    def cluster(self, config: Optional[ClusterConfig] = None) -> ClusterConfig:
        """The cluster the point runs on, and the one its cache key
        fingerprints.  An explicit config wins unchanged; otherwise the
        testbed, its fixed-size buffers shrunk with the data volume."""
        if config is not None:
            return config
        cfg = deep_er_testbed(
            flush_batch_chunks=self.flush_batch_chunks, seed=self.seed
        )
        if self.scale != 1.0:
            # Fixed-size buffers must shrink with the data volume or they
            # absorb a disproportionate share of a scaled-down run.
            cfg = cfg.scaled(
                pfs=replace(
                    cfg.pfs,
                    server_cache_bytes=max(
                        64 * MiB, int(cfg.pfs.server_cache_bytes * self.scale)
                    ),
                )
            )
        return cfg

    def run(self, config: Optional[ClusterConfig] = None, cache=None) -> "ExperimentResult":
        return run_experiment(self, config)


@dataclass
class ExperimentResult:
    spec: ExperimentSpec
    file_size: int
    bw: float  # Eq. (2), excluding the last phase's non-hidden sync
    bw_incl_last: float  # including it (the IOR measurement)
    breakdown: dict[str, float]  # per-phase seconds, straggler view, all files
    write_time: float  # Σ max-rank write time over phases
    close_wait: float  # Σ max-rank close wait (non-hidden sync)
    peak_pinned: int  # max collective-buffer memory pinned on any node
    bytes_persisted: int
    events: int

    @property
    def tbw(self) -> float:
        """Bandwidth ignoring all synchronisation waits (cache write rate)."""
        return self.spec.num_files * self.file_size / self.write_time

    def to_dict(self) -> dict:
        """JSON-safe form; floats survive the round trip bit-for-bit
        (json uses repr, Python's shortest exact float representation)."""
        d = asdict(self)
        d["spec"] = asdict(self.spec)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentResult":
        fields = dict(d)
        fields["spec"] = ExperimentSpec(**fields["spec"])
        return cls(**fields)


# What ExperimentSpec.run returns, and what the result cache decodes a hit as.
ExperimentSpec.record_type = ExperimentResult


def build_workload(spec: ExperimentSpec, nprocs: int):
    """Build the benchmark recipe at the spec's scale.

    Scaling must preserve each pattern's *locality structure* (which ranks
    feed which aggregator nodes), because that is what differentiates the
    three benchmarks' shuffle costs.  coll_perf shrinks the per-rank block
    (the pattern stays globally strided); Flash-IO shrinks blocks-per-proc
    (per-variable rank-contiguous layout unchanged); IOR shrinks the
    *segment count*, keeping the paper's 8 MB transfer size so the
    block→file-domain→node mapping is identical to full scale.
    """
    s = spec.scale
    if spec.benchmark == "coll_perf":
        # Round to a 2 KiB multiple (the z-run granularity) so the block
        # factorises into a whole number of contiguous runs at any scale.
        block = max(64 * KiB, (int(64 * MiB * s) // (2 * KiB)) * 2 * KiB)
        return collperf_workload(nprocs, block_bytes=block)
    if spec.benchmark == "flash_io":
        blocks = max(1, int(round(80 * s)))
        return flashio_workload(nprocs, blocks_per_proc=blocks)
    return ior_workload(nprocs, block_bytes=8 * MiB, segments=max(1, int(round(8 * s))))


def hints_for(spec: ExperimentSpec) -> dict[str, str]:
    hints = {
        "cb_nodes": str(spec.aggregators),
        "cb_buffer_size": str(spec.cb_buffer),
        "romio_cb_write": "enable",
        "striping_unit": str(4 * MiB),
        "striping_factor": "4",
        "ind_wr_buffer_size": str(512 * KiB),
    }
    if spec.cache_mode == "enabled":
        hints.update(
            e10_cache="enable",
            e10_cache_flush_flag="flush_immediate",
            e10_cache_discard_flag="enable",
        )
    elif spec.cache_mode == "theoretical":
        hints.update(
            e10_cache="enable",
            e10_cache_flush_flag="flush_none",
            e10_cache_discard_flag="enable",
        )
    return hints


def run_experiment(
    spec: ExperimentSpec,
    config: Optional[ClusterConfig] = None,
    profiler=None,
    reference: bool = False,
) -> ExperimentResult:
    """Simulate one measurement point.

    ``profiler`` (a :class:`~repro.sim.profile.SimProfiler`) attaches
    engine instrumentation to the run — used by ``tools/profile_sweep.py``;
    it does not change the simulation or its result.  ``reference`` runs
    the point on the reference stack (see :class:`~repro.machine.Machine`):
    the same result except for the diagnostic ``events``.  Only the
    uncached entry points take it — :func:`run_experiment_cached` and the
    sweep runner always simulate production, because the result cache's
    keys do not name the stack and would serve one stack's ``events`` count
    to a caller of the other.
    """
    cfg = spec.cluster(config)
    machine = Machine(cfg, profiler=profiler, reference=reference)
    world = MPIWorld(machine)
    layer = MPIIOLayer(machine, world.comm, driver="beegfs")
    workload = build_workload(spec, cfg.num_ranks)
    # The compute delay must shrink by the *achieved* data scale (workload
    # granularity floors — e.g. one IOR segment — can make it coarser than
    # requested), or hiding behaviour would not be scale-invariant.
    full_bytes_per_rank = {"coll_perf": 64 * MiB, "ior": 64 * MiB, "flash_io": 60 * MiB}
    effective_scale = workload.bytes_per_rank / full_bytes_per_rank[spec.benchmark]
    compute = spec.compute_delay * effective_scale
    body = multi_phase_body(
        layer,
        workload,
        hints_for(spec),
        num_files=spec.num_files,
        compute_delay=compute,
        deferred_close=spec.cache_mode != "disabled",
        file_prefix=f"/global/{spec.benchmark}_{spec.label}_{spec.cache_mode}_",
    )
    # One entry per class of ranks (its members share it): every quantity
    # below is a maximum over ranks, which repeating an entry cannot move.
    timings: list[list[PhaseTiming]] = machine.sim.run(
        until=machine.sim.all_of(world.spawn(body))
    )
    bw = perceived_bandwidth(timings, workload.file_size, include_last_phase=False)
    bw_incl = perceived_bandwidth(timings, workload.file_size, include_last_phase=True)
    parts = []
    write_time = 0.0
    close_wait = 0.0
    for k in range(spec.num_files):
        write_time += max(t[k].write_time + t[k].open_time for t in timings)
        close_wait += max(t[k].close_wait for t in timings)
    for slots in layer._open_slots.values():
        for fd in slots:
            parts.append(
                breakdown_from_profiles([p.profile for p in fd.class_profilers])
            )
    return ExperimentResult(
        spec=spec,
        file_size=workload.file_size,
        bw=bw,
        bw_incl_last=bw_incl,
        breakdown=merge_breakdowns(parts),
        write_time=write_time,
        close_wait=close_wait,
        peak_pinned=max(n.peak_pinned_bytes for n in machine.nodes),
        bytes_persisted=machine.pfs.bytes_persisted,
        events=machine.sim.events_fired,
    )


# In-process memo on top of the disk cache, keyed by the full content
# address (spec + config fingerprint + schema version) so two calls with
# different ClusterConfigs can never alias — the old ExperimentSpec-keyed
# dict returned the first config's result for both.
_MEMO: dict[str, ExperimentResult] = {}


def clear_memo() -> None:
    _MEMO.clear()


def run_experiment_cached(
    spec: ExperimentSpec,
    config: Optional[ClusterConfig] = None,
    cache: Optional[ResultCache] = None,
) -> ExperimentResult:
    """Memoised runner — figure benches share measurement points.

    Within a process, repeated calls return the identical object.  Across
    processes and sessions, results round-trip through the on-disk
    :class:`ResultCache` (pass ``cache`` to control placement, or set
    ``REPRO_CACHE=0`` to keep everything in memory).
    """
    cfg = spec.cluster(config)
    key = cache_key(spec, cfg)
    result = _MEMO.get(key)
    if result is not None:
        return result
    if cache is None:
        cache = ResultCache()
    result = cache.get(spec, cfg)
    if result is None:
        result = run_experiment(spec, cfg)
        cache.put(spec, cfg, result)
    _MEMO[key] = result
    return result
