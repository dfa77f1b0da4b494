"""FTL flash model: kind selection, GC thresholds, write amplification,
and the erase-before-program invariant.

The FTL runs entirely inside ``service_time`` — these tests drive it
synchronously (no simulator events needed) with a shrunken geometry so a
few hundred page writes cycle the whole logical space.
"""

import importlib.util
from pathlib import Path

import pytest

from repro import options
from repro.config import FlashConfig, SSDConfig, small_testbed
from repro.hw.devices import SSDDevice
from repro.hw.flash import FlashSSDDevice, create_node_ssd
from repro.reference import HeapSimulator

#: 512 B pages, 8-page blocks, 2 LUNs, generous OP: tiny but structurally
#: identical to the real geometry.
TINY = FlashConfig(
    page_size=512,
    pages_per_block=8,
    num_luns=2,
    over_provisioning=0.25,
    gc_free_fraction=0.25,
)
CAPACITY = 64 * 512  # 64 logical pages -> 8 logical blocks

TOOL = Path(__file__).resolve().parents[2] / "tools" / "generate_experiments_md.py"


def make(flash=TINY, capacity=CAPACITY):
    return FlashSSDDevice(HeapSimulator(), "f", flash=flash, capacity_bytes=capacity)


def check_ftl_consistency(dev):
    """Structural FTL invariants that must hold after any operation mix."""
    # L2P and P2L are inverse bijections.
    assert len(dev._l2p) == len(dev._p2l)
    for lpn, ppn in dev._l2p.items():
        assert dev._p2l[ppn] == lpn
        # LUN striping: lpn n lives on LUN n % num_luns.
        assert (ppn // dev.pages_per_block) % dev.num_luns == lpn % dev.num_luns
    # Valid counts match the mapping, and no block programs past its end
    # (erase-before-program: a slot is written at most once per cycle).
    for block in range(dev.num_blocks):
        base = block * dev.pages_per_block
        mapped = sum(1 for p in range(base, base + dev.pages_per_block) if p in dev._p2l)
        assert dev._valid[block] == mapped
        assert 0 <= dev._next_slot[block] <= dev.pages_per_block
        assert dev._valid[block] <= dev._next_slot[block]


class TestKindSelection:
    def test_kinds(self):
        assert options.SSD_KINDS == ("stream", "ftl")

    def test_default_is_stream(self, monkeypatch):
        monkeypatch.delenv("REPRO_SSD", raising=False)
        assert options.get("REPRO_SSD") == "stream"
        assert small_testbed().ssd_kind == "stream"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SSD", "ftl")
        assert options.get("REPRO_SSD") == "ftl"

    def test_unknown_kind_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SSD", "optane")
        with pytest.raises(ValueError, match="REPRO_SSD='optane': must be one of"):
            small_testbed()

    def test_create_node_ssd_dispatch(self, monkeypatch):
        """The tier is resolved when the config is built: a config built
        under ``REPRO_SSD=ftl`` is ftl, and an explicit value wins."""
        monkeypatch.delenv("REPRO_SSD", raising=False)
        sim = HeapSimulator()
        assert isinstance(create_node_ssd(sim, 0, small_testbed()), SSDDevice)
        monkeypatch.setenv("REPRO_SSD", "ftl")
        cfg = small_testbed()
        assert cfg.ssd_kind == "ftl"
        assert isinstance(create_node_ssd(sim, 0, cfg), FlashSSDDevice)
        stream = create_node_ssd(sim, 1, small_testbed(ssd_kind="stream"))
        assert type(stream) is SSDDevice

    def test_explicit_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            create_node_ssd(HeapSimulator(), 0, small_testbed(ssd_kind="slc"))


class TestFreshDevice:
    def test_sequential_fill_has_no_amplification(self):
        dev = make()
        for page in range(dev.logical_pages):
            dev.service_time(page * 512, 512, is_write=True)
        assert dev.host_pages_programmed == dev.logical_pages
        assert dev.gc_pages_programmed == 0
        assert dev.write_amplification == 1.0
        assert dev.gc_stall_time == 0.0
        check_ftl_consistency(dev)

    def test_luns_program_in_parallel(self):
        dev = make()
        one = dev.service_time(0, 512, True)
        # Two pages land on two different LUNs: same program latency.
        two = dev.service_time(512, 2 * 512, True)
        assert two == pytest.approx(one)

    def test_read_faster_than_write_and_pure(self):
        dev = make()
        write_time = dev.service_time(0, 4096, True)
        before = dict(dev._l2p)
        assert dev.service_time(0, 4096, False) < write_time
        assert dev._l2p == before  # reads never touch the mapping
        assert dev.pages_read > 0

    def test_gc_reserve_floor(self):
        # At least 2 blocks so relocation always has somewhere to write.
        dev = make(FlashConfig(page_size=512, pages_per_block=8, num_luns=2,
                               gc_free_fraction=0.0))
        assert dev.gc_reserve_blocks >= 2


class TestGarbageCollection:
    def overwrite(self, dev, passes, seed=7):
        """Steady random overwrite — the sync thread's aging pattern."""
        import random

        rng = random.Random(seed)
        pages = dev.logical_pages
        for _ in range(passes * pages):
            dev.service_time(rng.randrange(pages) * 512, 512, True)

    def test_overwrite_triggers_gc_and_amplification(self):
        dev = make()
        self.overwrite(dev, passes=6)
        assert dev.gc_runs > 0
        assert dev.blocks_erased > 0
        assert dev.gc_stall_time > 0.0
        assert dev.write_amplification > 1.0
        check_ftl_consistency(dev)

    def test_overwrite_in_place_is_cheap(self):
        # Rewriting one page over and over invalidates immediately: the
        # victim block is always fully invalid, so GC erases without
        # relocating and WA stays at 1.
        dev = make()
        for _ in range(12 * dev.pages_per_block):
            dev.service_time(0, 512, True)
        assert dev.gc_runs > 0
        assert dev.gc_pages_programmed == 0
        assert dev.write_amplification == 1.0
        check_ftl_consistency(dev)

    def test_deterministic(self):
        a, b = make(), make()
        self.overwrite(a, passes=4)
        self.overwrite(b, passes=4)
        assert a.stats() == b.stats()

    def test_stats_keys(self):
        dev = make()
        self.overwrite(dev, passes=4)
        s = dev.stats()
        assert s["host_pages_programmed"] > 0
        assert s["write_amplification"] == dev.write_amplification
        assert s["gc_stall_time"] == dev.gc_stall_time

    def test_gc_stall_charged_to_triggering_request(self):
        """The host request that trips GC pays erase + relocation time."""
        dev = make()
        baseline = dev.service_time(0, 512, True)
        self.overwrite(dev, passes=3)
        stalled = 0.0
        import random

        rng = random.Random(11)
        before = dev.gc_stall_time
        for _ in range(6 * dev.logical_pages):
            t = dev.service_time(rng.randrange(dev.logical_pages) * 512, True and 512, True)
            stalled = max(stalled, t)
        assert dev.gc_stall_time > before
        assert stalled > baseline  # some request visibly paid a GC stall


class TestThroughMachine:
    def test_ftl_machine_accounts_amplification(self):
        """An ftl machine's node SSDs age under a direct overwrite load."""
        from repro.machine import Machine

        cfg = small_testbed(
            ssd_kind="ftl",
            ssd=SSDConfig(capacity=CAPACITY),
            flash=TINY,
        )
        m = Machine(cfg)
        dev = m.nodes[0].ssd
        assert isinstance(dev, FlashSSDDevice)

        def proc():
            import random

            rng = random.Random(3)
            for _ in range(5 * dev.logical_pages):
                yield from dev.write(rng.randrange(dev.logical_pages) * 512, 512)

        m.sim.run(until=m.sim.process(proc()))
        assert dev.write_amplification > 1.0
        assert dev.gc_stall_time > 0.0
        assert dev.bytes_written == 5 * dev.logical_pages * 512
        check_ftl_consistency(dev)


class TestAgingMicrobench:
    """The seeded aging load EXPERIMENTS.md reports, pinned to exact counters.

    ``tools/generate_experiments_md.py`` owns the helper: a fresh sequential
    fill, then 4096 seeded random overwrites on the 4 KiB-page / 64-page-block
    / 4-LUN / 1024-page geometry.  The FTL is deterministic, so every counter
    is exact.
    """

    @pytest.fixture(scope="class")
    def aging(self):
        spec = importlib.util.spec_from_file_location("generate_experiments_md", TOOL)
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        assert tool.AGING_FLASH == FlashConfig(
            page_size=4096, pages_per_block=64, num_luns=4
        )
        assert tool.AGING_CAPACITY == 1024 * 4096
        return tool.flash_aging_microbench(writes=4096, seed=2016)

    def test_counters_are_exact(self, aging):
        assert aging["host_pages_programmed"] == 5120  # 1024 fill + 4096 overwrites
        assert aging["gc_pages_programmed"] == 14877
        assert aging["gc_runs"] == 294
        assert aging["blocks_erased"] == 294

    def test_fresh_fill_does_not_amplify_and_steady_overwrite_does(self, aging):
        assert aging["fresh_fill_wa"] == 1.0
        assert aging["write_amplification"] >= 1.5
        assert aging["gc_stall_time_s"] > 0.0
