"""Ablations over the design choices DESIGN.md calls out.

Each test flips one mechanism and prints the effect, asserting its
direction.  Runs are small (one configuration each), so these are cheap
compared to the figure sweeps.
"""

from dataclasses import replace

from benchmarks.conftest import run_once
from repro.config import deep_er_testbed
from repro.experiments.runner import ExperimentSpec, run_experiment
from repro.units import GiB, KiB, MiB

BASE = dict(scale=0.125, flush_batch_chunks=16)


def run_with(benchmark, spec, config=None):
    return run_once(benchmark, lambda: run_experiment(spec, config=config))


class TestFlushBufferSize:
    """ind_wr_buffer_size sweep: bigger sync chunks amortise the synchronous
    round trip, shortening the flush (paper Section III, Table II)."""

    def test_bigger_chunks_flush_faster(self, benchmark):
        import repro.experiments.runner as runner_mod

        def run(chunk):
            spec = ExperimentSpec("ior", aggregators=8, cache_mode="enabled", **BASE)
            original = runner_mod.hints_for

            def patched(s):
                h = original(s)
                h["ind_wr_buffer_size"] = str(chunk)
                return h

            runner_mod.hints_for = patched
            try:
                return runner_mod.run_experiment(spec)
            finally:
                runner_mod.hints_for = original

        small = run(128 * KiB)
        big = run_once(benchmark, lambda: run(2 * MiB))
        print(f"\nflush leak: 128KiB chunks {small.close_wait:.1f}s vs "
              f"2MiB chunks {big.close_wait:.1f}s")
        assert big.close_wait < small.close_wait


class TestJitter:
    """Server-side jitter drives the slowest-writer global sync cost."""

    def test_jitter_increases_global_sync(self, benchmark):
        spec = ExperimentSpec("coll_perf", aggregators=64, cache_mode="disabled", **BASE)
        cfg = deep_er_testbed(flush_batch_chunks=16)
        # Scale the server write cache with the data volume (as the default
        # runner path does): a full-size cache absorbs the whole scaled file
        # and masks service-time variance entirely.
        cache = int(cfg.pfs.server_cache_bytes * spec.scale)
        cfg = cfg.scaled(pfs=replace(cfg.pfs, server_cache_bytes=cache))
        calm_cfg = cfg.scaled(pfs=replace(cfg.pfs, jitter_sigma=0.0))
        noisy = run_with(benchmark, spec, cfg)
        calm = run_experiment(spec, config=calm_cfg)

        def sync_cost(r):
            return r.breakdown.get("shuffle_all2all", 0) + r.breakdown.get("post_write", 0)

        print(f"\nglobal sync: jitter {sync_cost(noisy):.2f}s vs calm {sync_cost(calm):.2f}s")
        assert sync_cost(noisy) > sync_cost(calm)


class TestComputeDelay:
    """The hidden/not-hidden crossover moves with the compute delay (Eq. 1)."""

    def test_crossover(self, benchmark):
        short = ExperimentSpec(
            "ior", aggregators=16, cache_mode="enabled", compute_delay=5.0, **BASE
        )
        long = ExperimentSpec(
            "ior", aggregators=16, cache_mode="enabled", compute_delay=60.0, **BASE
        )
        r_short = run_with(benchmark, short)
        r_long = run_experiment(long)
        print(f"\nperceived BW: 5s compute {r_short.bw / GiB:.2f} vs "
              f"60s compute {r_long.bw / GiB:.2f} GiB/s")
        assert r_long.bw > r_short.bw * 1.5


class TestAggregatorPlacement:
    """Spread vs packed aggregator nodes: packing concentrates NIC load."""

    def test_spread_at_least_as_fast(self, benchmark):
        import repro.experiments.runner as runner_mod

        def run(spread):
            spec = ExperimentSpec("coll_perf", aggregators=8, cache_mode="theoretical", **BASE)
            original = runner_mod.hints_for

            def patched(s):
                h = original(s)
                h["cb_config_spread"] = "enable" if spread else "disable"
                return h

            runner_mod.hints_for = patched
            try:
                return runner_mod.run_experiment(spec)
            finally:
                runner_mod.hints_for = original

        spread = run_once(benchmark, lambda: run(True))
        packed = run(False)
        print(f"\nTBW: spread {spread.tbw / GiB:.2f} vs packed {packed.tbw / GiB:.2f} GiB/s")
        assert spread.tbw >= packed.tbw * 0.95


class TestFlushPolicy:
    """flush_immediate overlaps compute; flush_onclose pays everything at close."""

    def test_immediate_beats_onclose(self, benchmark):
        import repro.experiments.runner as runner_mod

        def run(flag):
            spec = ExperimentSpec("ior", aggregators=32, cache_mode="enabled", **BASE)
            original = runner_mod.hints_for

            def patched(s):
                h = original(s)
                h["e10_cache_flush_flag"] = flag
                return h

            runner_mod.hints_for = patched
            try:
                return runner_mod.run_experiment(spec)
            finally:
                runner_mod.hints_for = original

        immediate = run_once(benchmark, lambda: run("flush_immediate"))
        onclose = run("flush_onclose")
        print(f"\nperceived BW: immediate {immediate.bw / GiB:.2f} vs "
              f"onclose {onclose.bw / GiB:.2f} GiB/s")
        assert immediate.bw > onclose.bw


class TestDeviceTier:
    """FTL vs stream SSD, NVMM vs extent cache (docs/DEVICES.md)."""

    def test_ftl_aging_slows_the_flush(self, benchmark):
        """On a scratch partition small enough that the sync load cycles it,
        GC stalls and relocation traffic lengthen the flush; the stream
        model charges nothing for overwrite, so its timing is unchanged."""
        from repro.config import SSDConfig

        spec = ExperimentSpec("ior", aggregators=8, cache_mode="enabled", **BASE)
        small_scratch = SSDConfig(capacity=1 * GiB)

        def run(kind):
            cfg = deep_er_testbed(
                flush_batch_chunks=16, ssd_kind=kind, ssd=small_scratch
            )
            return run_experiment(spec, config=cfg)

        stream = run_once(benchmark, lambda: run("stream"))
        ftl = run("ftl")
        print(f"\nclose wait: stream {stream.close_wait:.2f}s vs ftl "
              f"{ftl.close_wait:.2f}s (1 GiB scratch, cycled by the sync load)")
        assert ftl.close_wait > stream.close_wait

    def test_nvmm_cache_absorbs_writes_faster(self, benchmark):
        """The WAL on byte-addressable NVMM takes cache writes at memory
        bandwidth (one barrier per record) instead of SSD + filesystem
        speed, so perceived write bandwidth rises."""
        import repro.experiments.runner as runner_mod

        def run(kind):
            spec = ExperimentSpec("ior", aggregators=8, cache_mode="enabled", **BASE)
            original = runner_mod.hints_for

            def patched(s):
                h = original(s)
                h["e10_cache_kind"] = kind
                return h

            runner_mod.hints_for = patched
            try:
                return runner_mod.run_experiment(spec)
            finally:
                runner_mod.hints_for = original

        extent = run_once(benchmark, lambda: run("extent"))
        nvmm = run("nvmm")
        print(f"\nperceived BW: extent {extent.bw / GiB:.2f} vs "
              f"nvmm {nvmm.bw / GiB:.2f} GiB/s")
        assert nvmm.bw > extent.bw


class TestStripeAlignment:
    """Even (UFS) vs stripe-aligned (BeeGFS) file domains: alignment avoids
    extent-lock false sharing on POSIX-locking file systems (footnote 1).
    The file (16 ranks x 80 KiB x 2 segments = 2.5 MiB) splits into even
    domains of 640 KiB, 2.5 stripes each, so adjacent UFS aggregators share
    a stripe; aligned domains share none."""

    def test_alignment_avoids_lock_contention(self, benchmark):
        from repro.machine import Machine
        from repro.mpi.process import MPIWorld
        from repro.romio.file import MPIIOLayer
        from repro.workloads import ior_workload
        from repro.config import small_testbed

        def run(driver):
            machine = Machine(small_testbed(8, 2))
            world = MPIWorld(machine)
            layer = MPIIOLayer(machine, world.comm, driver=driver)
            wl = ior_workload(16, block_bytes=80 * KiB, segments=2)
            hints = {
                "cb_nodes": "4",
                "cb_buffer_size": "256k",
                "striping_unit": "256k",
                "romio_cb_write": "enable",
            }

            def body(ctx):
                fh = yield from layer.open(ctx.rank, "/g/t", hints)
                for step in wl.steps:
                    yield from fh.write_all(step.access_fn(ctx.rank))
                yield from fh.close()

            world.run(body)
            return machine.pfs.locks.contended_acquires

        # the UFS driver locks writes (POSIX-ish) with even domains
        ufs_contention = run_once(benchmark, lambda: run("ufs"))
        beegfs_contention = run("beegfs")
        print(f"\ncontended lock acquires: ufs(even) {ufs_contention} vs "
              f"beegfs(aligned) {beegfs_contention}")
        assert ufs_contention > 0
        assert beegfs_contention <= ufs_contention
