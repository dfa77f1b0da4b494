"""Greedy schedule shrinking + replayable JSON repro artifacts.

When a chaos trial fails, the generated schedule usually contains faults
that have nothing to do with the failure.  :func:`shrink_schedule` is a
greedy delta-debugger: it repeatedly tries dropping one fault (then the
sync-RPC timeout) and keeps any candidate that still reproduces the
failure, converging to a locally-minimal schedule — for a single-cause bug,
typically one or two faults.

The minimized schedule is written as a self-contained JSON artifact: the
pinned trial spec (schedule made explicit, so nothing depends on the
generator's draw order staying stable across versions), the cluster-config
fingerprint it ran against, and the human-readable reason.  Replay with::

    PYTHONPATH=src python -m repro.chaos.replay <artifact.json>

which exits non-zero while the failure still reproduces.

Paper correspondence: none (robustness harness, DESIGN.md §9).
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import Callable, Optional

from repro.experiments.resultcache import config_fingerprint
from repro.faults.spec import FaultSchedule

# v2: the stored result's fields compare stacks (``stacks_match``, ...).
# v3: the stored result names integrity violations (``integrity_violations``)
# in place of per-file checksums.
ARTIFACT_VERSION = 3


def shrink_schedule(
    schedule: FaultSchedule,
    still_fails: Callable[[FaultSchedule], bool],
    max_runs: int = 64,
) -> FaultSchedule:
    """Greedily minimize ``schedule`` while ``still_fails`` stays true.

    ``still_fails`` must return True for the input schedule's failure (the
    caller has already observed it, so it is never re-run here).  Each
    candidate drops exactly one fault; after no single drop reproduces,
    zeroing ``sync_rpc_timeout`` is tried.  ``max_runs`` bounds the number
    of candidate trials (quadratic worst case in the fault count).
    """
    current = schedule
    runs = 0
    progress = True
    while progress and runs < max_runs:
        progress = False
        for i in range(len(current.faults)):
            candidate = FaultSchedule(
                faults=current.faults[:i] + current.faults[i + 1 :],
                sync_rpc_timeout=current.sync_rpc_timeout,
            )
            runs += 1
            if still_fails(candidate):
                current = candidate
                progress = True
                break
            if runs >= max_runs:
                break
    if current.sync_rpc_timeout > 0 and runs < max_runs:
        candidate = FaultSchedule(faults=current.faults, sync_rpc_timeout=0.0)
        if still_fails(candidate):
            current = candidate
    return current


def write_repro_artifact(
    path,
    spec,
    schedule: FaultSchedule,
    reason: str,
    config=None,
    result: Optional[dict] = None,
) -> dict:
    """Write a minimized, replayable failure description; returns the payload.

    ``spec`` is a :class:`~repro.chaos.runner.ChaosTrialSpec`; the stored
    copy is *pinned* (schedule explicit, generation off) so the artifact
    replays the exact same faults even if the generator changes.
    """
    pinned = spec.pinned(schedule)
    payload = {
        "version": ARTIFACT_VERSION,
        "seed": spec.seed,
        "reason": reason,
        "spec": asdict(pinned),
        "schedule": schedule.to_dict(),
        "config_fingerprint": config_fingerprint(spec.cluster(config)),
        "replay": f"PYTHONPATH=src python -m repro.chaos.replay {path}",
    }
    if result is not None:
        payload["result"] = result
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


def load_repro_artifact(path):
    """Load an artifact back into ``(spec, schedule, payload)``."""
    from repro.chaos.runner import ChaosTrialSpec

    payload = json.loads(Path(path).read_text())
    if payload.get("version") != ARTIFACT_VERSION:
        raise ValueError(
            f"unsupported repro artifact version {payload.get('version')!r} "
            f"(expected {ARTIFACT_VERSION})"
        )
    spec = ChaosTrialSpec.from_dict(payload["spec"])
    schedule = FaultSchedule.from_dict(payload["schedule"])
    return spec, schedule, payload
