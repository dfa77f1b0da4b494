"""``tools/profile_sweep.py``: the stack it profiles, the event-kind tally."""

import importlib.util
import json
from collections import Counter
from pathlib import Path

import pytest

from repro.sim.core import Simulator
from tests.conftest import ENGINES

TOOL = Path(__file__).resolve().parents[1] / "tools" / "profile_sweep.py"


@pytest.fixture
def tool():
    spec = importlib.util.spec_from_file_location("profile_sweep_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def stack_flags(engine):
    """``heapq`` is the reference stack's engine, ``slotted`` production's."""
    return ["--reference"] if engine == "heapq" else []


def test_profiles_the_allocator_production_runs(tool, tmp_path):
    """... unless ``--reference`` asks for the other stack; the flag is an
    argument all the way down, so the caller's environment is left alone."""
    assert tool.build_parser().parse_args([]).reference is False
    point = ["--aggregators", "8", "--scale", "0.005", "--json"]
    for flags, stack in (([], "production"), (["--reference"], "reference")):
        assert tool.main(point + [str(tmp_path / f"{stack}.json")] + flags) == 0
    production, reference = (
        json.loads((tmp_path / f"{stack}.json").read_text())
        for stack in ("production", "reference")
    )
    assert (production["spec"]["stack"], reference["spec"]["stack"]) == ("production", "reference")
    assert production["bw_gib_s"] == reference["bw_gib_s"]
    assert production["events_fired"] < reference["events_fired"]
    counters = production["profiler"]["counters"], reference["profiler"]["counters"]
    assert "fabric.rate_cache_hits" in counters[0] and "fabric.rate_cache_hits" not in counters[1]
    with pytest.raises(SystemExit, match="--chaos-seed runs both stacks"):
        tool.main(["--chaos-seed", "1", "--reference"])


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_event_kinds_account_for_every_event_and_move_nothing(tool, engine, tmp_path, capsys):
    runs = {cls: cls.run for cls in ENGINES.values()}
    point = ["--aggregators", "8", "--scale", "0.005"] + stack_flags(engine)
    assert tool.main(point + ["--json", str(tmp_path / "plain.json")]) == 0
    assert tool.main(point + ["--events", "4", "--json", str(tmp_path / "tally.json")]) == 0
    assert {cls: cls.run for cls in ENGINES.values()} == runs  # engines restored
    plain = json.loads((tmp_path / "plain.json").read_text())
    tally = json.loads((tmp_path / "tally.json").read_text())
    assert "event_kinds" not in plain
    assert sum(tally["event_kinds"].values()) == tally["events_fired"] == plain["events_fired"]
    assert tally["bw_gib_s"] == plain["bw_gib_s"]
    assert all(kind.count(" : ") == 2 for kind in tally["event_kinds"])
    out = capsys.readouterr().out
    assert f"event kinds ({tally['events_fired']:,d} events fired)" in out


def test_event_kinds_skip_the_instants_cancellation_emptied(tool, tmp_path, monkeypatch):
    """An IOR point with its cache on: the fabric takes superseded wakes off
    the event list, some of them the only item of their instant.  The tally's
    peek at the head of the event list passes over such an instant as
    ``step()`` does, and still accounts for every event fired."""
    emptied = []
    cancel = Simulator.cancel

    def noting(sim, handle):
        removed = cancel(sim, handle)
        entry, _fn = handle
        if removed and not entry[2]:
            emptied.append(entry[0])
        return removed

    monkeypatch.setattr(Simulator, "cancel", noting)
    point = ["--benchmark", "ior", "--aggregators", "8", "--scale", "0.005"]
    assert tool.main(point + ["--events", "4", "--json", str(tmp_path / "t.json")]) == 0
    tally = json.loads((tmp_path / "t.json").read_text())
    assert tally["spec"]["cache_mode"] == "enabled" and emptied
    assert sum(tally["event_kinds"].values()) == tally["events_fired"]


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_resumes_add_up_and_move_nothing(tool, engine, tmp_path, capsys):
    """``--resumes``: every process kind with its processes and the ranks
    each stands for; ``--num-files`` sizes the run.  The park counters keep
    counting ranks, however few processes stand for them."""
    from repro.sim.core import Process

    resume = Process._resume
    point = ["--aggregators", "8", "--scale", "0.005", "--num-files", "2"] + stack_flags(engine)
    assert tool.main(point + ["--json", str(tmp_path / "plain.json")]) == 0
    assert tool.main(point + ["--resumes", "3", "--json", str(tmp_path / "tally.json")]) == 0
    assert Process._resume is resume  # restored
    plain = json.loads((tmp_path / "plain.json").read_text())
    tally = json.loads((tmp_path / "tally.json").read_text())
    assert plain["spec"]["num_files"] == tally["spec"]["num_files"] == 2
    assert "process_resumes" not in plain
    assert tally["events_fired"] == plain["events_fired"]
    assert tally["bw_gib_s"] == plain["bw_gib_s"]
    kinds = tally["process_resumes"]
    # Every rank is behind exactly one process: 8 aggregators (rank 0 among
    # them) and one class of 504 where classes form, else 512 of one rank.
    ranked = {kind: row["processes"] for kind, row in kinds.items() if kind.startswith("rank")}
    assert sum(n * int(kind.rpartition(" x")[2]) for kind, n in ranked.items()) == 512
    if engine == "slotted":
        assert ranked == {"rank x1": 8, "rank+ x504": 1}
        assert kinds["rank+ x504"]["resumes"] < kinds["rank x1"]["resumes"] / 8
        # The clock writes: nobody is resumed to write a round, every
        # process once a call by its own event.
        waited = Counter()
        for row in kinds.values():
            waited.update({what: w["resumes"] for what, w in row["waited_on"].items()})
        assert not any("write_all:wake" in what or "write_all:post" in what for what in waited)
        assert waited["Event : write_all:done"] == (8 + 1) * 2
    else:
        assert ranked == {"rank x1": 512}
    out = capsys.readouterr().out
    total = sum(row["resumes"] for row in kinds.values())
    assert f"of {len(kinds)} process kinds ({total:,d} resumes)" in out
    assert all(row["resumes"] >= row["processes"] >= 1 for row in kinds.values())
    for row in kinds.values():  # every resume waited on something, named
        assert sum(w["resumes"] for w in row["waited_on"].values()) == row["resumes"]
        assert all(what.count(" : ") == 1 for what in row["waited_on"])
    counters = tally["profiler"]["counters"]
    parked, live = counters.get("ext2ph.park_single", 0), counters["ext2ph.park_live"]
    assert parked + live == 512 * 2  # one collective call a file, counted in ranks
    assert parked == (504 * 2 if engine == "slotted" else 0)


FLASH_IO_POINT = [  # the Flash-IO unit of ``noncontig_grid4``
    "--benchmark", "flash_io", "--aggregators", "64", "--cb-mib", "16",
    "--cache-mode", "enabled", "--scale", "0.0125", "--num-files", "2",
]  # fmt: skip


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_resumes_name_who_wakes_for_what(tool, engine, tmp_path, capsys):
    """Under every process kind, the event kinds it waited on.  On the
    production stack a collective write runs on its clock: no rank is resumed
    by a ``coll:timed:`` slot, the 64 aggregators and the class of 448 once a
    call, by their own events — the clock writes the rounds; on the
    reference stack every rank walks every slot."""
    out_json = tmp_path / "flash.json"
    point = FLASH_IO_POINT + stack_flags(engine)
    assert tool.main(point + ["--resumes", "6", "--json", str(out_json)]) == 0
    kinds = json.loads(out_json.read_text())["process_resumes"]
    for row in kinds.values():
        assert sum(w["resumes"] for w in row["waited_on"].values()) == row["resumes"]
        assert all(w["inclusive_us"] > 0 for w in row["waited_on"].values())
    ranks = {kind: row["waited_on"] for kind, row in kinds.items() if kind.startswith("rank")}
    timed = {
        what: w["resumes"]
        for waited in ranks.values()
        for what, w in waited.items()
        if "coll:timed:" in what
    }
    out = capsys.readouterr().out
    if engine == "heapq":
        slots = ("offset_exch", "aa.c", "x.c")  # ``a2a.c7`` without its digits
        assert set(timed) == {f"Event : coll:timed:{slot}[]r" for slot in slots}
        return
    assert not timed
    calls = 2 * 24
    assert ranks["rank+ x448"]["Event : write_all:done"]["resumes"] == calls
    aggregators = ranks["rank x1"]
    once_a_call = aggregators["Event : write_all:done"]["resumes"]
    assert once_a_call == 64 * calls
    assert not any("write_all:" in what for what in aggregators if "write_all:done" not in what)
    assert f"{once_a_call:>9,d}" in out and "Event : write_all:done" in out


def test_tables_lists_what_each_table_holds_and_moves_nothing(tool, tmp_path, capsys):
    """``--tables``: the ``noncontig_grid4`` coll_perf point plans both files
    from one descriptor — 524,288 extents described, a few KiB held, never
    flattened — and a Flash-IO point from 24 one-extent-per-rank ones."""
    from repro.romio import ext2ph

    ext2ph.model_memo.clear()
    prepare = ext2ph._prepare_model
    point = ["--benchmark", "coll_perf", "--cb-mib", "16", "--num-files", "2"]
    assert tool.main(point + ["--json", str(tmp_path / "plain.json")]) == 0
    ext2ph.model_memo.clear()
    assert tool.main(point + ["--tables", "--json", str(tmp_path / "tables.json")]) == 0
    assert ext2ph._prepare_model is prepare  # restored
    plain = json.loads((tmp_path / "plain.json").read_text())
    listed = json.loads((tmp_path / "tables.json").read_text())
    assert "access_tables" not in plain
    assert listed["events_fired"] == plain["events_fired"]
    assert listed["bw_gib_s"] == plain["bw_gib_s"]
    plain["profiler"]["counters"].pop("access.table_build", None)  # whoever ran first
    assert listed["profiler"]["counters"] == plain["profiler"]["counters"]
    (row,) = listed["access_tables"]
    assert row["form"] == "strided 2 levels"
    assert (row["ranks"], row["extents"]) == (512, 524_288)
    assert row["held_bytes"] < 64 * 1024 and row["flattened"] is False
    assert (row["memo_hits"], row["memo_misses"], row["memo_skips"]) == (1, 1, 0)
    # the one plan: 512 ranks x 64 aggregators x 1 round, one rank in eight
    # sharing bytes with each window (an 8 x 8 x 8 grid of blocks)
    assert (row["pairs"], row["cells"]) == (4_096, 512 * 64)
    out = capsys.readouterr().out
    assert "1 distinct access tables" in out
    assert "strided 2 levels     512     524,288" in out
    assert "4,096 / 32,768 (12.5%)" in out

    flash = ["--benchmark", "flash_io", "--scale", "0.0125", "--num-files", "2"]
    assert tool.main(flash + ["--tables", "--json", str(tmp_path / "flash.json")]) == 0
    rows = json.loads((tmp_path / "flash.json").read_text())["access_tables"]
    assert len(rows) == 24 and {row["form"] for row in rows} == {"strided 0 levels"}
    assert all(row["extents"] == 512 and not row["flattened"] for row in rows)
    # a rank's one extent meets one domain, or two where a bound cuts it
    assert all(512 <= row["pairs"] < 520 and row["cells"] == 512 * 64 for row in rows)
