"""The digest table: every exactness claim as a committed number.

Three sets, seed 2016, each entry run on both stacks (production and
``reference=True``):

* ``faults/<benchmark>-<scenario>``: the 24-point fault matrix at scale 0.25;
* ``chaos/seed<n>``: chaos trials 0-11 at scale 0.125 (a trial runs both
  stacks itself and reports whether they agree);
* ``fleet/j<id>`` and ``fleet/rest``: the 80-job fleet at scale 1/32, one
  entry per job row of ``FleetResult.identity()`` and one for the rest of it.

An entry is the SHA-256 of its public result minus the kernel event counts,
which the stacks may not share, and those counts, ``[production,
reference]`` (the fleet's on ``fleet/rest``).  The stacks must agree on the
digest.  One table per device tier (``REPRO_SSD``, ``REPRO_CACHE_KIND``),
committed as ``tests/integration/digests/<ssd>-<cache kind>.json`` and held
by ``tests/integration/test_digest_table.py``.  A host-only change leaves
the table as it is; a declared model change re-records it and names every
entry that moved.

    PYTHONPATH=src python tools/digests.py           # print this tier's table
    PYTHONPATH=src python tools/digests.py --write   # re-record it, list what moved
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from repro import options
from repro.chaos.runner import chaos_trial_specs, run_chaos_trial
from repro.experiments.faultsweep import fault_matrix_specs, run_fault_experiment
from repro.fleet.runner import FleetSpec, run_fleet

SEED = 2016
TABLES = Path(__file__).resolve().parents[1] / "tests" / "integration" / "digests"
STACKS = (False, True)  # reference=


def digest(fields: dict) -> str:
    """SHA-256 of a public result, its kernel event count left out."""
    fields = {k: v for k, v in fields.items() if k != "events"}
    blob = json.dumps(fields, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def agreed(name: str, production: dict, reference: dict) -> str:
    """The digest both stacks' results of ``name`` share."""
    if production != reference:
        differ = sorted(k for k in production if production[k] != reference.get(k))
        raise AssertionError(f"{name}: the stacks disagree on {differ}")
    return digest(production)


def faults() -> dict[str, dict]:
    table = {}
    specs = fault_matrix_specs(
        benchmarks=("ior", "flash_io", "coll_perf"), scale=0.25, seed=SEED
    )
    for spec in specs:
        results = [run_fault_experiment(spec, reference=r).to_dict() for r in STACKS]
        events = [fields.pop("events") for fields in results]
        name = f"faults/{spec.benchmark}-{spec.scenario}"
        table[name] = {"digest": agreed(name, *results), "events": events}
    return table


def chaos() -> dict[str, dict]:
    table = {}
    for spec in chaos_trial_specs(range(12), scale=0.125):
        fields = run_chaos_trial(spec).to_dict()
        if fields["mismatched"]:
            raise AssertionError(f"chaos/seed{spec.seed}: the stacks disagree")
        events = [fields.pop("events_production"), fields.pop("events_reference")]
        table[f"chaos/seed{spec.seed}"] = {"digest": digest(fields), "events": events}
    return table


def fleet() -> dict[str, dict]:
    spec = FleetSpec(fleet_size=80, scale=0.03125, seed=SEED)
    identities, events = [], []
    for reference in STACKS:
        result = run_fleet(spec, reference=reference)
        identities.append(result.identity())
        events.append(result.events)
    table = {}
    for prod, ref in zip(*(identity.pop("jobs") for identity in identities)):
        name = f"fleet/j{prod['job_id']}"
        table[name] = {"digest": agreed(name, prod, ref)}
    rest = agreed("fleet/rest", *identities)
    table["fleet/rest"] = {"digest": rest, "events": events}
    return table


SETS = {"faults": faults, "chaos": chaos, "fleet": fleet}


def compute() -> dict[str, dict]:
    """This tier's table, freshly simulated."""
    table = {}
    for entries in SETS.values():
        table.update(entries())
    return table


def tier() -> str:
    return f"{options.get('REPRO_SSD')}-{options.get('REPRO_CACHE_KIND')}"


def table_path() -> Path:
    return TABLES / f"{tier()}.json"


def load() -> dict[str, dict]:
    """This tier's committed table (empty if none is committed)."""
    path = table_path()
    return json.loads(path.read_text()) if path.exists() else {}


def moved(old: dict[str, dict], new: dict[str, dict]) -> list[str]:
    """One line per entry of either table that the other does not hold
    as it is."""
    lines = []
    for name in sorted(old.keys() | new.keys()):
        if name not in new:
            lines.append(f"{name}: gone")
        elif name not in old:
            lines.append(f"{name}: new")
        elif old[name] != new[name]:
            was, now = old[name], new[name]
            keys = sorted(was.keys() | now.keys())
            what = [k for k in keys if was.get(k) != now.get(k)]
            changes = ", ".join(f"{k} {was.get(k)} -> {now.get(k)}" for k in what)
            lines.append(f"{name}: {changes}")
    return lines


def render(table: dict[str, dict]) -> str:
    return json.dumps(table, indent=1, sort_keys=True) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--write", action="store_true", help="re-record this tier's table"
    )
    args = parser.parse_args(argv)
    table = compute()
    if not args.write:
        for name, entry in table.items():
            events = " ".join(map(str, entry.get("events", ())))
            print(f"{name:<28} {entry['digest']} {events}")
        return 0
    lines = moved(load(), table)
    TABLES.mkdir(parents=True, exist_ok=True)
    table_path().write_text(render(table))
    print(f"{table_path()}: {len(table)} entries, {len(lines)} moved", file=sys.stderr)
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
