"""``tools/profile_sweep.py``: the allocator it profiles, the event-kind tally."""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.net.fabric import default_fabric_kind
from repro.sim.core import ENGINE_KINDS

TOOL = Path(__file__).resolve().parents[1] / "tools" / "profile_sweep.py"


@pytest.fixture
def tool():
    spec = importlib.util.spec_from_file_location("profile_sweep_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_profiles_the_allocator_production_runs(tool, monkeypatch):
    monkeypatch.delenv("REPRO_FABRIC", raising=False)
    assert tool.build_parser().parse_args([]).fabric == default_fabric_kind() == "array"
    monkeypatch.setenv("REPRO_FABRIC", "incremental")
    assert tool.build_parser().parse_args([]).fabric == "incremental"
    assert tool.build_parser().parse_args(["--fabric", "naive"]).fabric == "naive"


@pytest.mark.parametrize("engine", sorted(ENGINE_KINDS))
def test_event_kinds_account_for_every_event_and_move_nothing(
    tool, engine, tmp_path, monkeypatch, capsys
):
    monkeypatch.setenv("REPRO_ENGINE", engine)
    runs = {cls: cls.run for cls in ENGINE_KINDS.values()}
    point = ["--aggregators", "8", "--scale", "0.005"]
    assert tool.main(point + ["--json", str(tmp_path / "plain.json")]) == 0
    assert tool.main(point + ["--events", "4", "--json", str(tmp_path / "tally.json")]) == 0
    assert {cls: cls.run for cls in ENGINE_KINDS.values()} == runs  # engines restored
    plain = json.loads((tmp_path / "plain.json").read_text())
    tally = json.loads((tmp_path / "tally.json").read_text())
    assert "event_kinds" not in plain
    assert sum(tally["event_kinds"].values()) == tally["events_fired"] == plain["events_fired"]
    assert tally["bw_gib_s"] == plain["bw_gib_s"]
    assert all(kind.count(" : ") == 2 for kind in tally["event_kinds"])
    out = capsys.readouterr().out
    assert f"event kinds ({tally['events_fired']:,d} events fired)" in out
