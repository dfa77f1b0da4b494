import pytest

from repro.reference import HeapSimulator
from repro.romio.profiling import (
    PHASES,
    PhaseProfile,
    Profiler,
    aggregate_max,
    aggregate_mean,
)


class TestPhaseProfile:
    def test_accumulates(self):
        p = PhaseProfile()
        p.add("write", 1.0)
        p.add("write", 0.5)
        assert p.get("write") == 1.5
        assert p.total == 1.5

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            PhaseProfile().add("write", -1)

    def test_missing_phase_zero(self):
        assert PhaseProfile().get("comm") == 0.0


class TestProfiler:
    def test_lap_measures_sim_time(self):
        sim = HeapSimulator()
        prof = Profiler(sim, rank=0)

        def proc():
            t0 = prof.mark()
            yield sim.timeout(2.5)
            prof.lap("write", t0)

        sim.run(until=sim.process(proc()))
        assert prof.profile.get("write") == pytest.approx(2.5)


class TestAggregation:
    def test_max_takes_straggler(self):
        profiles = [
            PhaseProfile({"write": 1.0, "comm": 5.0}),
            PhaseProfile({"write": 3.0, "comm": 2.0}),
        ]
        agg = aggregate_max(profiles)
        assert agg.get("write") == 3.0
        assert agg.get("comm") == 5.0

    def test_mean(self):
        profiles = [PhaseProfile({"write": 1.0}), PhaseProfile({"write": 3.0})]
        assert aggregate_mean(profiles).get("write") == 2.0

    def test_empty(self):
        assert aggregate_mean([]).total == 0.0
        assert aggregate_max([]).total == 0.0

    def test_phase_names_cover_paper_legend(self):
        for name in ("shuffle_all2all", "comm", "write", "post_write", "not_hidden_sync"):
            assert name in PHASES
