"""Chaos harness: randomized fault schedules + global invariant checking.

The fault matrix (:mod:`repro.experiments.faultsweep`) asserts end-to-end
integrity for six *hand-picked* scenarios.  This package turns the same
machinery into a property-based harness: a seeded generator draws random —
but survivable — :class:`~repro.faults.FaultSchedule`\\ s (including cascades:
a second crash landing during recovery replay), an
:class:`~repro.chaos.invariants.InvariantMonitor` checks global invariants
(byte conservation, journal/lock coherence, a no-progress watchdog) on every
run, each trial executes on **both** stacks (production and reference) and
must agree on every simulated quantity, and a failing schedule is greedily
shrunk to a minimal replayable JSON artifact
(``python -m repro.chaos.replay <artifact>``).

Paper correspondence: none — robustness harness for the §III cache
extensions (see DESIGN.md §9).
"""

from repro.chaos.generate import ChaosConfig, generate_schedule
from repro.chaos.invariants import InvariantMonitor, InvariantViolation
from repro.chaos.runner import (
    ChaosTrialResult,
    ChaosTrialSpec,
    chaos_trial_specs,
    render_chaos_table,
    run_chaos_trial,
)
from repro.chaos.shrink import load_repro_artifact, shrink_schedule, write_repro_artifact

__all__ = [
    "ChaosConfig",
    "ChaosTrialResult",
    "ChaosTrialSpec",
    "InvariantMonitor",
    "InvariantViolation",
    "chaos_trial_specs",
    "generate_schedule",
    "load_repro_artifact",
    "render_chaos_table",
    "run_chaos_trial",
    "shrink_schedule",
    "write_repro_artifact",
]
