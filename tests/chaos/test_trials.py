"""Chaos trials end-to-end: cascades, stack equality, shrinking, replay, CLI."""

import json

import pytest

from repro.chaos import (
    ChaosTrialResult,
    ChaosTrialSpec,
    chaos_trial_specs,
    load_repro_artifact,
    render_chaos_table,
    run_chaos_trial,
    shrink_schedule,
    write_repro_artifact,
)
from repro.chaos import replay as chaos_replay
from repro.chaos.runner import CHAOS_CACHE_MODES, schedule_for
from repro.experiments import sweep
from repro.faults.recovery import CacheRecoveryRegistry
from repro.faults.spec import FaultSchedule, FaultSpec

SCALE = 0.25  # keeps a full two-stack trial around a second

#: Crash while the last file's flush is in flight, then crash the recovery
#: job mid-replay — the repeated-crash schedule of DESIGN.md §9.
CASCADE = FaultSchedule.of(
    FaultSpec("aggregator_crash", target=0, on_event="write_done:1", delay=2e-3),
    FaultSpec("aggregator_crash", target=3, on_event="recovery_replay", delay=8e-4),
)


@pytest.fixture(scope="module")
def cascade_result():
    spec = ChaosTrialSpec(seed=900, cache_mode="enabled", scale=SCALE).pinned(CASCADE)
    return run_chaos_trial(spec, trace=True)


class TestRepeatedCrashRecovery:
    def test_second_crash_during_replay_still_converges(self, cascade_result):
        r = cascade_result
        assert r.outcome == "crash_recovered"
        assert r.crashes >= 2  # the cascade killed the first recovery job too
        assert r.recovery_attempts >= 2
        assert r.bytes_replayed > 0
        assert r.integrity_ok  # recovered bytes match the fault-free reference
        assert r.stacks_match
        assert r.violations == []
        assert r.ok

    def test_fault_and_recovery_events_are_colored_in_the_trace(self, cascade_result):
        chrome = cascade_result.tracers["production"].to_chrome_trace()
        by_cat = {}
        for event in chrome["traceEvents"]:
            by_cat.setdefault(event["cat"], []).append(event)
        crashes = [e for e in by_cat["faults"] if e["name"] == "aggregator_crash"]
        assert len(crashes) >= 2
        assert all(e["cname"] == "terrible" and e["ph"] == "i" for e in crashes)
        assert by_cat["recovery"]
        assert all(e["cname"] == "good" for e in by_cat["recovery"])


class TestReplayUnderTransientFaults:
    def test_stalled_server_with_rpc_watchdog_does_not_abort_recovery(self):
        # Found by the chaos sweep (seed 48, minimized): a server stall
        # overlapping recovery trips the sync-RPC watchdog inside the
        # replay pass.  Before replay retried transient faults, the
        # PFSTimeoutError killed the replaying rank mid-collective-open
        # and left the other seven ranks deadlocked on its barrier.
        schedule = FaultSchedule.of(
            FaultSpec("server_stall", target=1, start=0.0862, duration=0.0241),
            FaultSpec("aggregator_crash", target=6, on_event="write_done:1", delay=8.5e-4),
            sync_rpc_timeout=0.01,
        )
        spec = ChaosTrialSpec(seed=48, cache_mode="enabled", scale=SCALE).pinned(
            schedule
        )
        r = run_chaos_trial(spec)
        assert r.outcome == "crash_recovered"
        assert r.violations == []
        assert r.integrity_ok
        assert r.stacks_match
        assert r.ok


class TestTrialProperties:
    def test_generated_trial_is_deterministic(self):
        spec = ChaosTrialSpec(seed=4, cache_mode="coherent", scale=SCALE)
        a = run_chaos_trial(spec)
        b = run_chaos_trial(spec)
        assert a.to_dict() == b.to_dict()

    @pytest.mark.parametrize("seed", range(12))
    def test_small_seed_batch_upholds_every_property(self, seed):
        """Production and reference stack agree on every simulated quantity
        (outcome, checksums, ledgers) of the seed's faulted job."""
        (spec,) = chaos_trial_specs([seed], scale=SCALE)
        r = run_chaos_trial(spec)
        assert r.ok, (r.outcome, r.mismatched, r.violations)
        assert r.stacks_match
        assert r.violations == []

    def test_result_roundtrips_through_dict(self, cascade_result):
        again = ChaosTrialResult.from_dict(
            json.loads(json.dumps(cascade_result.to_dict()))
        )
        assert again.to_dict() == cascade_result.to_dict()

    def test_spec_batches_cycle_cache_modes(self):
        specs = chaos_trial_specs(range(6), scale=SCALE)
        assert [s.cache_mode for s in specs] == list(CHAOS_CACHE_MODES) * 2
        assert {s.flush_flag for s in specs} == {"flush_onclose", "flush_immediate"}

    def test_table_has_one_row_per_trial(self, cascade_result):
        table = render_chaos_table([cascade_result])
        assert "crash_recovered" in table
        assert len(table.splitlines()) == 3


class TestShrinkAndReplay:
    @pytest.fixture()
    def broken_recovery(self, monkeypatch):
        """Crash recovery 'forgets' to revoke the dead owner's stripe locks."""
        monkeypatch.setattr(
            CacheRecoveryRegistry, "_revoke_locks", lambda self, journal: None
        )

    def test_injected_bug_is_caught_shrunk_and_replayable(
        self, broken_recovery, tmp_path
    ):
        # Seed 4 draws a crashing schedule (windowed faults + crash); the
        # orphaned-lock invariant must catch the unrevoked leases.
        spec = ChaosTrialSpec(seed=4, cache_mode="coherent", scale=SCALE)
        result = run_chaos_trial(spec)
        assert not result.ok
        assert any("orphaned lock" in v for v in result.violations)

        schedule = schedule_for(spec, spec.cluster())
        runs = []

        def still_fails(candidate):
            runs.append(candidate)
            return not run_chaos_trial(spec.pinned(candidate)).ok

        shrunk = shrink_schedule(schedule, still_fails)
        assert len(shrunk.faults) <= 2  # crash (+ cascade at most) remains
        assert all(f.kind == "aggregator_crash" for f in shrunk.faults)
        assert len(runs) <= 64

        artifact = tmp_path / "repro.json"
        payload = write_repro_artifact(artifact, spec, shrunk, "orphaned lock")
        loaded_spec, loaded_schedule, loaded = load_repro_artifact(artifact)
        assert loaded_schedule == shrunk
        assert not loaded_spec.generate  # pinned: replays the exact faults
        assert loaded["config_fingerprint"] == payload["config_fingerprint"]

        # The artifact replays the failure deterministically (exit 1) ...
        assert chaos_replay.main([str(artifact)]) == 1
        replayed = run_chaos_trial(loaded_spec)
        assert any("orphaned lock" in v for v in replayed.violations)

    def test_replay_passes_once_the_bug_is_fixed(self, tmp_path):
        # ... and certifies the fix (exit 0) with the real _revoke_locks.
        spec = ChaosTrialSpec(seed=4, cache_mode="coherent", scale=SCALE)
        schedule = schedule_for(spec, spec.cluster())
        artifact = tmp_path / "repro.json"
        write_repro_artifact(artifact, spec, schedule, "orphaned lock")
        assert chaos_replay.main([str(artifact)]) == 0

    def test_unsupported_artifact_version_rejected(self, tmp_path):
        artifact = tmp_path / "repro.json"
        artifact.write_text(json.dumps({"version": 99}))
        with pytest.raises(ValueError, match="unsupported repro artifact version"):
            load_repro_artifact(artifact)


class TestCLI:
    def test_chaos_flag_runs_seeds_and_exits_zero(self, capsys):
        status = sweep.main(
            [
                "--chaos",
                "--seeds",
                "3",
                "--jobs",
                "1",
                "--no-cache",
                "--quiet",
                "--scale",
                str(SCALE),
            ]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "outcome" in out
        assert len([l for l in out.splitlines() if l.lstrip().startswith(("0", "1", "2"))]) >= 3

    def test_chaos_failure_exits_nonzero_with_minimized_artifact(
        self, monkeypatch, tmp_path, capsys
    ):
        monkeypatch.setattr(
            CacheRecoveryRegistry, "_revoke_locks", lambda self, journal: None
        )
        status = sweep.main(
            [
                "--chaos",
                "--seeds",
                "1",
                "--base-seed",
                "4",
                "--jobs",
                "1",
                "--no-cache",
                "--quiet",
                "--scale",
                str(SCALE),
                "--output-dir",
                str(tmp_path),
            ]
        )
        assert status == 1
        err = capsys.readouterr().err
        assert "CHAOS FAILURE" in err
        assert "orphaned lock" in err
        artifact = tmp_path / "chaos-repro-seed4.json"
        assert artifact.exists()
        _, shrunk, payload = load_repro_artifact(artifact)
        assert len(shrunk.faults) <= 2
        assert "repro.chaos.replay" in payload["replay"]
