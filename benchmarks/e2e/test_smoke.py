"""Smoke test of the benchmark's contract: ``pytest benchmarks/e2e -q``.

Runs ``run.py --smoke`` (<= 2 ops per workload, 2 passes) the way the
driver does and checks that what ``BENCHMARK.json`` names is what gets
printed.  Not part of tier-1 (``testpaths = tests``).
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke", *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout
    return proc.stdout.splitlines()


def check(lines, specs):
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {s["name"] for s in specs}
    for spec in specs:
        got = result["metrics"][spec["name"]]
        assert got["unit"] == spec["unit"]
        assert isinstance(got["value"], (int, float))
        # ... and by name with its unit in the table a person reads.
        assert any(
            line.split()[0] == spec["name"] and line.split()[-1] == spec["unit"]
            for line in lines
            if line and not line.startswith(("{", "#"))
        ), spec["name"]
    return result


def test_contract_shape():
    assert sorted(BENCH) == sorted(
        ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    )
    assert 2 <= len(WORKLOADS) <= 8
    assert 1 <= len(BENCH["end_to_end"]) <= 16
    assert 1 <= len(BENCH["per_layer"]) <= 128
    names = WORKLOADS + [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(n) for n in names)
    for workload in BENCH["workloads"]:
        assert sorted(workload) == ["name", "why"]
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in BENCH["end_to_end"]:
        assert sorted(metric) == ["better", "bound", "name", "unit"]
        assert 0 < metric["bound"] <= 0.25
    for metric in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])
    assert not any(f.startswith("bench_") for f in os.listdir(HERE))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result = check(run("--workload", workload, "--trace", "0"), BENCH["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["metrics"]["ok_share"]["value"] == 1.0


def test_traced_run_and_layer_table():
    workload = "faults_payload24"
    lines = run("--workload", workload, "--trace", "1")
    metrics = check(lines, BENCH["per_layer"])["metrics"]
    shares = [v["value"] for k, v in metrics.items() if k.endswith(".self_share")]
    assert abs(sum(shares) - 1.0) < 0.01
    assert metrics["faults.injected"]["value"] > 0
    with open(os.path.join(HERE, "out", f"trace_{workload}.json")) as fh:
        spans = json.load(fh)["traceEvents"]
    by_id = {s["args"]["id"]: s for s in spans}
    chain = [s for s in spans if s["name"].startswith("call:")][0]
    names = []
    while chain is not None:
        names.append(chain["name"].split(":")[0])
        chain = by_id.get(chain["args"]["parent"])
    assert names == ["call", "unit", "pass", "workload", "run"]


def test_refuses_a_directory_without_the_program(tmp_path):
    """The driver also runs the command where only the benchmark exists."""
    shutil.copytree(
        HERE,
        tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCH))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=60,
    )  # fmt: skip
    assert proc.returncode != 0 and proc.stdout == ""
