"""One faulted-job lifecycle (``faultsweep.run_job``) for every harness.

The fault matrix, chaos trials and their fault-free references run a job,
classify how each phase ended, tear it down, recover it and audit it
through one function, so a schedule gets one verdict whichever harness
runs it: a dead SSD is a data loss in both, a cascade crash recovers in
both, and a recovery that never converges is reported, not raised.
"""

from __future__ import annotations

import pytest

from repro.chaos.runner import ChaosTrialSpec, run_chaos_trial
from repro.experiments import faultsweep
from repro.experiments.faultsweep import FaultExperimentSpec, run_fault_experiment
from repro.faults import FaultSpec
from repro.faults.errors import TransientIOError

SCALE = 0.125

#: Node 0's SSD fails every read from the start: the sync thread spends its
#: retry and re-queue budget on the first extent and gives it up.
DEAD_SSD = (FaultSpec("ssd_io_error", target=0, start=0.0, rate=1.0),)

#: Crash while the last file's flush is in flight, then crash the recovery
#: job mid-replay.
CASCADE = (
    FaultSpec("aggregator_crash", target=0, on_event="write_done:1", delay=2e-3),
    FaultSpec("aggregator_crash", target=3, on_event="recovery_replay", delay=8e-4),
)

#: Crash, then kill node 0's SSD as the replay starts: no recovery job can
#: read the orphaned extents back.
UNREPLAYABLE = (
    CASCADE[0],
    FaultSpec("ssd_io_error", target=0, on_event="recovery_replay", rate=1.0),
)


def point(faults, scenario="lifecycle"):
    return FaultExperimentSpec("ior", scenario=scenario, faults=faults, scale=SCALE)


def trial(faults):
    return ChaosTrialSpec(seed=0, scale=SCALE, faults=faults, generate=False)


def both_stacks(spec):
    """The point on production and on the reference stack, which must agree
    on everything but the diagnostic event count."""
    production = run_fault_experiment(spec)
    ours = production.to_dict()
    theirs = run_fault_experiment(spec, reference=True).to_dict()
    assert ours.pop("events") > 0 and theirs.pop("events") > 0
    assert ours == theirs
    return production


class TestDeadSSD:
    def test_the_matrix_reports_the_loss(self):
        r = both_stacks(point(DEAD_SSD, scenario="dead_ssd"))
        assert r.sync_failures == 1
        assert not r.integrity_ok
        assert r.integrity_violations == [
            "/global/fault_ior_dead_ssd_enabled_0: missing run [0, 262144)",
            "/global/fault_ior_dead_ssd_enabled_1: missing file",
        ]
        assert r.invariant_violations == []
        assert not r.crashed and r.bw_faulted == 0.0

    def test_a_chaos_trial_is_a_data_loss_not_a_deadlock(self):
        r = run_chaos_trial(trial(DEAD_SSD))
        assert r.outcome == "data_loss"
        assert r.ok and r.stacks_match
        assert r.io_stats["bytes_lost"] == 262144
        assert r.violations == []


def test_a_cascade_crash_on_the_matrix_recovers():
    r = both_stacks(point(CASCADE))
    assert r.crashed and r.recovered and r.integrity_ok
    assert r.invariant_violations == []
    assert r.faults_injected == 2 and r.bytes_replayed > 0


def test_a_recovery_that_never_converges_is_reported():
    r = both_stacks(point(UNREPLAYABLE))
    assert r.crashed and not r.recovered
    assert not r.integrity_ok
    assert r.invariant_violations == []
    chaos = run_chaos_trial(trial(UNREPLAYABLE))
    assert chaos.outcome == "unrecovered" and not chaos.ok
    assert chaos.recovery_attempts == faultsweep.MAX_RECOVERY_ATTEMPTS
    assert chaos.stacks_match


def test_a_fault_error_leaking_from_the_main_phase_is_a_violation(monkeypatch):
    def leaky(spec, layer, workload, prefix):
        def body(ctx):
            yield ctx.sim.timeout(1e-3)
            raise TransientIOError("leaked past the write path's fallbacks")

        return body

    monkeypatch.setattr(faultsweep, "phase_body", leaky)
    r = run_fault_experiment(point(DEAD_SSD))
    assert r.invariant_violations == ["FaultError escaped the main write phase"]
    assert not r.crashed and not r.integrity_ok


@pytest.mark.parametrize(
    "run",
    [lambda f: run_fault_experiment(point(f)), lambda f: run_chaos_trial(trial(f))],
    ids=["matrix", "chaos"],
)
def test_an_anchor_past_the_last_file_is_rejected(run):
    beyond = (FaultSpec("aggregator_crash", on_event="write_done:5", delay=2e-3),)
    with pytest.raises(ValueError, match="write_done:5"):
        run(beyond)


def test_crashes_count_the_phases_that_crashed_not_the_retries():
    """The write phase crashes once; every replay after it hits the dead
    SSD and ends in a ``fault``, a retry and not a crash."""
    r = run_chaos_trial(trial(UNREPLAYABLE))
    assert r.outcome == "unrecovered"
    assert r.recovery_attempts == faultsweep.MAX_RECOVERY_ATTEMPTS
    assert r.crashes == 1
