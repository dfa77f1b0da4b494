"""The fault harnesses simulate each fault-free reference once per process.

``reference_key`` must move with everything that can move a reference and
with nothing that only describes the fault schedule; a recalled reference
must give the very result a simulated one gives.
"""

import dataclasses
from dataclasses import replace

import pytest

from repro.chaos.invariants import InvariantMonitor
from repro.chaos.runner import ChaosTrialSpec, chaos_trial_specs, run_chaos_trial
from repro.config import small_testbed
from repro.experiments.faultsweep import (
    FaultExperimentSpec,
    FaultFreeReference,
    _file_prefix,
    build_fault_workload,
    fault_free_reference,
    fault_matrix_specs,
    reference_key,
    reference_memo,
    resolve_fault_config,
    run_fault_experiment,
)
from repro.faults import FaultSpec
from repro.machine import Machine
from repro.sim.profile import SimProfiler
from repro.units import KiB


@pytest.fixture(autouse=True)
def cold_memo():
    reference_memo.clear()
    yield
    reference_memo.clear()


SCHEDULE_ONLY = {"scenario", "faults", "sync_rpc_timeout"}

#: A different legal value for every field of the spec.
OTHER = {
    "benchmark": "flash_io",
    "scenario": "agg_crash",
    "faults": (FaultSpec("server_stall", target=0, start=0.01, duration=0.01),),
    "sync_rpc_timeout": 0.01,
    "cache_mode": "coherent",
    "cache_kind": "nvmm",
    "flush_flag": "flush_immediate",
    "aggregators": 2,
    "cb_buffer": 128 * KiB,
    "sync_chunk": 32 * KiB,
    "num_nodes": 2,
    "procs_per_node": 4,
    "num_files": 3,
    "compute_delay": 0.01,
    "scale": 0.5,
    "seed": 7,
}


class TestReferenceKey:
    def test_every_spec_field_is_covered(self):
        assert set(OTHER) == {f.name for f in dataclasses.fields(FaultExperimentSpec)}

    @pytest.mark.parametrize("name", sorted(OTHER))
    def test_key_moves_with_the_workload_and_not_with_the_schedule(self, name):
        base = FaultExperimentSpec("ior")
        cfg = small_testbed()
        other = replace(base, **{name: OTHER[name]})
        assert getattr(other, name) != getattr(base, name)
        same = reference_key(other, cfg) == reference_key(base, cfg)
        assert same == (name in SCHEDULE_ONLY)

    def test_key_moves_with_the_cluster_config(self):
        spec = FaultExperimentSpec("ior")
        cfg = small_testbed()
        keys = {
            reference_key(spec, cfg),
            reference_key(spec, cfg.scaled(seed=cfg.seed + 1)),
            reference_key(spec, cfg.scaled(pfs=replace(cfg.pfs, jitter_sigma=0.0))),
            reference_key(spec, cfg.scaled(ssd=replace(cfg.ssd, write_bw=cfg.ssd.write_bw / 2))),
            reference_key(spec, small_testbed(num_nodes=8)),
        }
        assert len(keys) == 5


class TestFaultMatrix:
    def test_matrix_simulates_six_references_and_results_do_not_move(self):
        specs = fault_matrix_specs(
            benchmarks=("ior", "flash_io", "coll_perf"), scale=0.25, seed=2016
        )
        assert len(specs) == 24
        recalled = [run_fault_experiment(spec).to_dict() for spec in specs]
        # One reference per benchmark and cache backend (``nvmm_torn`` runs on
        # the WAL); the other 18 points recall one.
        assert (reference_memo.hits, reference_memo.misses) == (18, 6)
        assert len(reference_memo) == 6
        simulated = []
        for spec in specs:
            reference_memo.clear()
            simulated.append(run_fault_experiment(spec).to_dict())
            assert (reference_memo.hits, reference_memo.misses) == (0, 1)
        assert recalled == simulated
        assert all(r["integrity_ok"] and r["bw_ref"] > 0 for r in recalled)

    def test_baseline_still_runs_its_own_second_leg(self):
        spec = fault_matrix_specs(scenarios=("baseline",), scale=0.25)[0]
        first, again = run_fault_experiment(spec), run_fault_experiment(spec)
        assert (reference_memo.hits, reference_memo.misses) == (1, 1)
        assert again.events == first.events > 0
        assert again.bw_faulted == first.bw_faulted == first.bw_ref

    def test_a_baseline_point_is_its_own_reference(self, monkeypatch):
        """With nothing memoised, a fault-free point builds one machine — the
        reference it would have simulated first is the very same run — and
        memoises it for the next scenario of its shape; both results equal
        those of simulating the reference first."""
        specs = fault_matrix_specs(scenarios=("baseline", "ssd_flaky"), scale=0.25)
        baseline, flaky = specs
        built = []
        init = Machine.__init__

        def counting(machine, *args, **kwargs):
            built.append(kwargs.get("faults"))
            init(machine, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(Machine, "__init__", counting)
            own = run_fault_experiment(baseline)
            assert built == [None]
            assert (reference_memo.hits, reference_memo.misses) == (0, 1)
            recalled = run_fault_experiment(flaky)
            assert len(built) == 2 and built[1] is not None
            assert (reference_memo.hits, reference_memo.misses) == (1, 1)
        assert own.bw_ref == own.bw_faulted == recalled.bw_ref
        reference_memo.clear()  # the reference simulated first, as it used to be
        cfg = resolve_fault_config(baseline)
        workload = build_fault_workload(baseline, cfg.num_ranks)
        fault_free_reference(baseline, cfg, workload, _file_prefix(baseline))
        simulated = [run_fault_experiment(spec).to_dict() for spec in specs]
        assert simulated == [own.to_dict(), recalled.to_dict()]

    def test_an_explicit_config_is_part_of_the_key(self):
        spec = fault_matrix_specs(scenarios=("baseline",), scale=0.25)[0]
        cfg = resolve_fault_config(spec)
        slow = cfg.scaled(pfs=replace(cfg.pfs, server_ingest_bw=cfg.pfs.server_ingest_bw / 8))
        fast_bw = run_fault_experiment(spec, cfg).bw_ref
        slow_bw = run_fault_experiment(spec, slow).bw_ref
        assert reference_memo.misses == 2 and slow_bw < fast_bw
        assert run_fault_experiment(spec, slow).bw_ref == slow_bw


class TestChaosTrials:
    def test_seeds_of_one_shape_share_a_reference(self):
        shape = lambda s: (s.cache_mode, s.cache_kind, s.flush_flag)  # noqa: E731
        specs = chaos_trial_specs([0, 6, 12], scale=0.25)
        assert len({shape(s) for s in specs}) == 1
        recalled = [run_chaos_trial(spec).to_dict() for spec in specs]
        assert (reference_memo.hits, reference_memo.misses) == (2, 1)
        simulated = []
        for spec in specs:
            reference_memo.clear()
            simulated.append(run_chaos_trial(spec).to_dict())
        assert recalled == simulated

    def test_a_hit_serves_the_same_ref_violations(self, monkeypatch):
        check = InvariantMonitor.check_quiescent

        def failing_audit(monitor):
            if monitor.machine.faults is None:  # the reference machine
                monitor.record("synthetic reference violation")
            return check(monitor)

        first, second = chaos_trial_specs([0, 6], scale=0.25)
        with monkeypatch.context() as patch:
            patch.setattr(InvariantMonitor, "check_quiescent", failing_audit)
            miss = run_chaos_trial(first)
        hit = run_chaos_trial(second)  # audited for real, reference recalled
        assert (reference_memo.hits, reference_memo.misses) == (1, 1)
        assert "ref:synthetic reference violation" in miss.violations
        assert [v for v in hit.violations if v.startswith("ref:")] == [
            v for v in miss.violations if v.startswith("ref:")
        ]
        assert not hit.ok

    def test_plain_and_audited_references_are_kept_apart(self):
        chaos = ChaosTrialSpec(seed=0, scale=0.25)
        fault = FaultExperimentSpec("ior", scale=0.25)
        run_chaos_trial(chaos)
        run_fault_experiment(fault)
        assert (reference_memo.hits, reference_memo.misses) == (0, 2)

    @pytest.mark.parametrize("how", ["trace", "profiler"])
    def test_traced_and_profiled_trials_bypass_the_memo(self, how):
        spec = ChaosTrialSpec(seed=0, scale=0.25)
        plain = run_chaos_trial(spec)
        assert (reference_memo.hits, reference_memo.misses, len(reference_memo)) == (0, 1, 1)
        kwargs = {"trace": True} if how == "trace" else {"profiler": SimProfiler()}
        result = run_chaos_trial(spec, **kwargs)
        assert (reference_memo.hits, reference_memo.misses, len(reference_memo)) == (0, 1, 1)
        assert result.to_dict() == plain.to_dict()
        if how == "trace":
            assert result.tracers["ref"].enabled  # the reference machine's own


class TestBounded:
    def test_oldest_references_go_first(self):
        ref = FaultFreeReference(bw=1.0)
        for k in range(reference_memo.maxsize + 6):
            reference_memo.put((str(k), False), ref)
        assert len(reference_memo) == reference_memo.maxsize
        assert reference_memo.get(("5", False)) is None
        assert reference_memo.get(("6", False)) is ref
        assert (reference_memo.hits, reference_memo.misses) == (1, 1)

    def test_an_entry_holds_no_machine(self):
        run_fault_experiment(FaultExperimentSpec("ior", scale=0.25))
        ((_, ref),) = reference_memo._refs.items()
        assert set(vars(ref)) == {"bw", "violations"} and ref.violations == ()
