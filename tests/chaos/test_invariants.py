"""Invariant monitor: conservation checks, watchdog deadlock diagnosis."""

import pytest

from repro.chaos.invariants import InvariantMonitor, InvariantViolation
from repro.config import small_testbed
from repro.machine import Machine
from repro.reference import HeapSimulator
from repro.sim.core import DeadlockError


def _stuck(sim, name="stuck"):
    """A process that waits forever on an event nothing will fire."""
    never = sim.event(name="never")

    def body():
        yield never

    return sim.process(body(), name=name)


class TestKernelDiagnosis:
    def test_run_until_names_blocked_processes(self):
        sim = HeapSimulator()
        sim.process_registry = {}
        proc = _stuck(sim)
        with pytest.raises(DeadlockError) as err:
            sim.run(until=proc)
        assert ("stuck", "waiting on never") in err.value.blocked
        assert "stuck" in str(err.value)

    def test_without_registry_stays_a_bare_simerror(self):
        sim = HeapSimulator()
        proc = _stuck(sim)
        with pytest.raises(Exception) as err:
            sim.run(until=proc)
        assert not isinstance(err.value, DeadlockError)


class TestWatchdog:
    def test_monitor_attaches_a_registry(self):
        machine = Machine(small_testbed())
        assert machine.sim.process_registry is None
        InvariantMonitor(machine)
        assert machine.sim.process_registry == {}

    def test_drain_diagnoses_a_stuck_process(self):
        machine = Machine(small_testbed())
        monitor = InvariantMonitor(machine)
        _stuck(machine.sim, name="agg-worker")
        monitor.watch()
        with pytest.raises(DeadlockError) as err:
            monitor.drain()
        assert ("agg-worker", "waiting on never") in err.value.blocked
        assert "agg-worker" in str(err.value)

    def test_clean_drain_parks_the_watchdog(self):
        machine = Machine(small_testbed())
        monitor = InvariantMonitor(machine)
        monitor.watch()
        monitor.drain()
        assert monitor.ticks >= 1
        assert not machine.sim.pending
        # Re-arming for a second phase must not raise either.
        monitor.watch()
        monitor.drain()
        assert monitor.violations == []


class TestChecks:
    def test_record_deduplicates(self):
        monitor = InvariantMonitor(Machine(small_testbed()))
        monitor.record("same thing")
        monitor.record("same thing")
        assert monitor.violations == ["same thing"]

    def test_inflow_conservation_breach_detected(self):
        machine = Machine(small_testbed())
        monitor = InvariantMonitor(machine)
        machine.io_stats["bytes_app"] += 64
        monitor.check_running()
        assert any("byte conservation (inflow)" in v for v in monitor.violations)

    def test_quiescent_conservation_breach_detected(self):
        machine = Machine(small_testbed())
        monitor = InvariantMonitor(machine)
        machine.io_stats["bytes_app"] += 64
        machine.io_stats["bytes_cached"] += 64  # inflow balances, outflow doesn't
        monitor.check_quiescent()
        assert any("byte conservation (quiescent)" in v for v in monitor.violations)

    def test_lost_bytes_must_stay_journaled(self):
        machine = Machine(small_testbed())
        monitor = InvariantMonitor(machine)
        machine.io_stats["bytes_lost"] = 32  # nothing journaled: loss vanished
        monitor.check_quiescent()
        assert any("loss accounting" in v for v in monitor.violations)

    def test_clean_machine_audits_clean(self):
        monitor = InvariantMonitor(Machine(small_testbed()))
        assert monitor.check_quiescent() == []
        monitor.assert_clean()
        assert monitor.summary() is None

    def test_assert_clean_raises_with_messages(self):
        monitor = InvariantMonitor(Machine(small_testbed()))
        monitor.record("broken")
        with pytest.raises(InvariantViolation, match="broken") as err:
            monitor.assert_clean()
        assert err.value.violations == ["broken"]
