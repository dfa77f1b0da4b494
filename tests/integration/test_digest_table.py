"""The digest table: the fault matrix, the chaos seeds and the 80-job fleet,
entry by entry, on both stacks, against this device tier's committed table.

``tools/digests.py`` computes the entries (its docstring names the sets) and
keeps one table per device tier under ``tests/integration/digests/``; the
CI legs that switch ``REPRO_SSD`` or ``REPRO_CACHE_KIND`` check their own.
The rule is the golden digests' rule: a host-only change reproduces every
entry bit for bit, event counts included; a change meant to move simulated
results re-records the table with ``tools/digests.py --write`` and names
the entries that moved.
"""

import pytest

from tests.conftest import load_tool

digests = load_tool("digests")


@pytest.mark.parametrize("name", sorted(digests.SETS))
def test_set_reproduces_its_committed_entries(name):
    committed = digests.load()
    assert committed, (
        f"no digest table for device tier {digests.tier()}: "
        "record one with tools/digests.py --write"
    )
    mine = {k: v for k, v in committed.items() if k.startswith(f"{name}/")}
    moved = digests.moved(mine, digests.SETS[name]())
    assert not moved, "entries moved:\n" + "\n".join(moved)


def test_moved_names_each_entry_and_field():
    old = {"a/1": {"digest": "x", "events": [1, 2]}, "a/2": {"digest": "y"}}
    new = {"a/1": {"digest": "x", "events": [1, 3]}, "a/3": {"digest": "z"}}
    assert digests.moved(old, new) == [
        "a/1: events [1, 2] -> [1, 3]",
        "a/2: gone",
        "a/3: new",
    ]
