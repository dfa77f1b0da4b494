"""``tools/reach.py``'s allow-list stays well formed without a traced run:
every entry names a production function that exists, once, with a kind
and a reason the tool accepts.  (Whether each listed function is still
unreached is the nightly run's question: it takes minutes.)"""

from tests.conftest import load_tool

reach = load_tool("reach")


def test_every_allow_list_entry_parses():
    _entries, bad = reach.allow_list()
    assert bad == []


def test_every_allow_list_entry_names_a_production_function():
    names = {name for name, _lines in reach.production_functions().values()}
    entries, _bad = reach.allow_list()
    assert sorted(entries - names) == []


def test_functions_are_named_by_file_and_qualname_without_the_reference_module():
    names = {name for name, _lines in reach.production_functions().values()}
    assert "repro/sim/core.py:Simulator.call_at" in names
    assert "repro/romio/ext2ph.py:CallClock._start" in names
    assert not any(name.startswith("repro/reference.py:") for name in names)


def test_an_oracle_whose_test_names_neither_it_nor_a_caller_is_refused(tmp_path, monkeypatch):
    allow = tmp_path / "allow.txt"
    allow.write_text(
        "repro/access.py:RankAccess.bytes_in_window oracle tests/test_intervals.py\n"
        "repro/mpi/collectives.py:op_min oracle tests/mpi/test_collectives.py via alltoall\n"
        "repro/mpi/collectives.py:op_sum oracle tests/mpi/test_collectives.py via allreduce\n"
        "repro/access.py:RankAccess.ends\n"
    )
    monkeypatch.setattr(reach, "ALLOW", allow)
    entries, bad = reach.allow_list()
    assert [line.split(":")[0] for line in bad] == ["line 1", "line 2", "line 4"]
    assert "repro/mpi/collectives.py:op_sum" in entries
