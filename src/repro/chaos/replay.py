"""Replay a minimized chaos repro artifact.

Usage::

    PYTHONPATH=src python -m repro.chaos.replay chaos-repro-seed17.json

Loads the artifact written by the chaos sweep (or
:func:`repro.chaos.shrink.write_repro_artifact`), re-runs the pinned trial
spec — same workload, same explicit fault schedule, both stacks — and
reports the outcome.  Exit status is **1 while the recorded failure still
reproduces** and 0 once the trial passes, so the artifact doubles as a
regression test for the fix.

A cluster-config fingerprint mismatch (calibration constants changed since
the artifact was written) is reported as a warning: the schedule still
replays deterministically, but the failure may legitimately have moved.

Paper correspondence: none (robustness harness, DESIGN.md §9).
"""

from __future__ import annotations

import argparse
import sys

from repro.chaos.runner import resolve_chaos_config, run_chaos_trial
from repro.chaos.shrink import load_repro_artifact
from repro.experiments.resultcache import config_fingerprint


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro.chaos.replay",
        description="Deterministically replay a minimized chaos failure.",
    )
    p.add_argument("artifact", help="repro JSON written by the chaos sweep")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    spec, schedule, payload = load_repro_artifact(args.artifact)
    fingerprint = config_fingerprint(resolve_chaos_config(spec, None))
    if fingerprint != payload.get("config_fingerprint"):
        print(
            "warning: cluster-config fingerprint differs from the artifact "
            "(calibration changed since it was recorded); the schedule still "
            "replays deterministically but the failure may have moved",
            file=sys.stderr,
        )
    print(f"replaying seed {spec.seed}: {payload.get('reason', '(no reason recorded)')}")
    for i, fault in enumerate(schedule.faults):
        trigger = (
            f"on {fault.on_event}+{fault.delay:g}s"
            if fault.on_event
            else f"t={fault.start:g}s dur={fault.duration:g}s"
        )
        print(f"  faults[{i}]: {fault.kind} target={fault.target} {trigger}")
    if schedule.sync_rpc_timeout:
        print(f"  sync_rpc_timeout={schedule.sync_rpc_timeout:g}s")
    result = run_chaos_trial(spec)
    print(
        f"outcome={result.outcome} integrity={'ok' if result.integrity_ok else 'FAIL'} "
        f"stacks={'match' if result.stacks_match else 'MISMATCH:' + ','.join(result.mismatched)} "
        f"violations={len(result.violations)}"
    )
    for v in result.violations:
        print(f"  violation: {v}")
    if result.ok:
        print("trial passed — the recorded failure no longer reproduces")
        return 0
    print("trial FAILED — the recorded failure reproduces", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
