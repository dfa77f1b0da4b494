"""Production functions that no harness entry point reaches.

Runs the sweep CLI's entry points in-process with a trace hook that records
every code object entered, once per device leg (the default tier,
``REPRO_SSD=ftl`` and ``REPRO_CACHE_KIND=nvmm``, each in its own
subprocess), then lists every function defined under ``src/`` — except
``repro/reference.py``, the reference stack's own module — that no leg
entered, with its line count (decorators included).  Between them the
entry points run every ``benchmarks/e2e`` workload path:

* ``--figures fig4 … fig10 --scale 0.03125`` (the paper's grid, three cache
  modes, both breakdown kinds) and the raw grid, ``--benchmark ior``;
* ``--faults --scale 0.25`` (the fault matrix: retries, crash + replay);
* ``--chaos --seeds 12`` (seeded schedules on both stacks);
* ``--fleet --fleet-size 16`` and ``--fleet-chaos --seeds 2``.

Each unreached function must be on the allow-list, ``tools/reach_allow.txt``,
one line per function: ``<file>:<qualname> <kind> <detail>``, where the kind
is ``oracle`` (kept as the reference a test checks against; the detail
is that test's path, which names the function — a dunder by its class's
name — or, when the test reaches it through callers, ``<test> via <caller>
...``: each caller names the one before it under ``src/`` and the test
names the last), ``failure`` (runs only when something
goes wrong; the detail says what) or ``api`` (public surface a script under
``benchmarks/``, ``tools/`` or ``examples/`` calls; the detail starts with
its path).  The exit status is non-zero when an unreached function is not on
the list, and when a listed one is reached or no longer exists — the list
only shrinks.  The three legs take about 13 minutes on one core, most of
it the FTL leg.

Usage::

    python tools/reach.py
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
REFERENCE = SRC / "repro" / "reference.py"
ALLOW = Path(__file__).with_name("reach_allow.txt")

LEGS = {
    "default": {},
    "ftl": {"REPRO_SSD": "ftl"},
    "nvmm": {"REPRO_CACHE_KIND": "nvmm"},
}
FIGURES = ["fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10"]
ENTRY_POINTS = [
    ["--figures", *FIGURES, "--scale", "0.03125"],
    ["--benchmark", "ior", "--scale", "0.03125"],
    ["--faults", "--scale", "0.25"],
    ["--chaos", "--seeds", "12"],
    ["--fleet", "--fleet-size", "16", "--scale", "0.03125"],
    ["--fleet-chaos", "--seeds", "2"],
]
KINDS = {"oracle", "failure", "api"}


def production_functions() -> dict[tuple[str, int], tuple[str, int]]:
    """``{(file, first line): (file:qualname, lines)}`` for every function
    under ``src/`` but the reference module; the first line is a code
    object's ``co_firstlineno`` (the first decorator's, if any)."""
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        if path == REFERENCE:
            continue
        rel = path.relative_to(SRC).as_posix()

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    qualname = prefix + child.name
                    lines = child.end_lineno - first + 1
                    found[(str(path), first)] = (f"{rel}:{qualname}", lines)
                    visit(child, qualname + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(), str(path)), "")
    return found


def record(out: Path) -> None:
    """Run every entry point under a trace hook; write what it entered.
    The hook is set before ``repro`` is imported: what runs at import time
    (module-level memos, class hooks) counts as reached."""
    seen = set()

    def enter(frame, event, arg):
        seen.add(frame.f_code)  # returns None: no per-line tracing

    sys.settrace(enter)
    try:
        from repro.experiments import sweep

        with tempfile.TemporaryDirectory() as scratch:
            for argv in ENTRY_POINTS:
                argv = [*argv, "--jobs", "1", "--no-cache", "--output-dir", scratch]
                status = sweep.main(argv)
                if status:
                    raise SystemExit(f"entry point {' '.join(argv)} exited {status}")
    finally:
        sys.settrace(None)
    src = str(SRC)
    reached = {(c.co_filename, c.co_firstlineno) for c in seen if c.co_filename.startswith(src)}
    out.write_text(json.dumps(sorted(reached)))


def run_leg(leg: str) -> set[tuple[str, int]]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(LEGS[leg])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "reached.json"
        cmd = [sys.executable, __file__, "--record", str(out)]
        run = subprocess.run(
            cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True
        )
        if run.returncode:
            sys.stderr.write(run.stderr)
            raise SystemExit(f"the {leg} leg failed (exit {run.returncode})")
        return {tuple(key) for key in json.loads(out.read_text())}


def _token(qualname: str) -> str:
    """The name a test or a caller uses for a function: its own, or its
    class's for a dunder (``len(x)`` and ``Class(...)`` name no method)."""
    parts = qualname.split(".")
    return parts[-2] if parts[-1].startswith("__") and len(parts) > 1 else parts[-1]


def callers() -> dict[str, set[str]]:
    """``{name: tokens of the functions under src/ whose body names it}``,
    by name alone (``obj.name`` and ``name`` both count); a module-level
    ``x = ...`` is a caller named ``x``."""
    found = {}
    for path in SRC.rglob("*.py"):

        def refer(node, caller):
            for sub in ast.walk(node):
                name = getattr(sub, "id", None) or getattr(sub, "attr", None)
                if isinstance(sub, (ast.Name, ast.Attribute)) and name != caller:
                    found.setdefault(name, set()).add(caller)

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    refer(child, _token(prefix + child.name))
                    visit(child, prefix + child.name + ".")
                elif isinstance(child, ast.Assign) and not prefix:
                    for target in child.targets:
                        if isinstance(target, ast.Name):
                            refer(child.value, target.id)
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(), str(path)), "")
    return found


def _test_touches(test: str, qualname: str, via: list[str], graph: dict[str, set[str]]) -> bool:
    """Whether a test's text names the function or, given ``via a b ...``,
    whether each of ``a``, ``b``, ... names the one before it under src/ and
    the test names the last."""
    chain = [_token(qualname), *via]
    if not all(caller in graph.get(callee, ()) for callee, caller in zip(chain, chain[1:])):
        return False
    return re.search(rf"\b{re.escape(chain[-1])}\b", (ROOT / test).read_text()) is not None


def allow_list() -> tuple[set[str], list[str]]:
    """The functions the allow-list names, and the lines that break its
    format."""
    entries, bad, graph = set(), [], callers()
    for n, line in enumerate(ALLOW.read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, kind, detail = (line.split(None, 2) + ["", ""])[:3]
        where, *via = detail.split() or [""]
        if kind not in KINDS or not where:
            bad.append(f"line {n}: kind must be one of {sorted(KINDS)}, with a reason")
        elif kind == "oracle" and not (
            where.startswith("tests/")
            and (ROOT / where).is_file()
            and via[:1] in ([], ["via"])
            and _test_touches(where, name.partition(":")[2], via[1:], graph)
        ):
            bad.append(f"line {n}: an oracle names a test that reaches it ({detail!r} does not)")
        elif kind == "api" and not (
            where.split("/")[0] in ("benchmarks", "tools", "examples") and (ROOT / where).exists()
        ):
            bad.append(f"line {n}: api names the script that calls it ({where!r})")
        elif name in entries:
            bad.append(f"line {n}: {name} listed twice")
        entries.add(name)
    return entries, bad


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--record", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.record:
        record(args.record)
        return 0
    reached = set()
    for leg in LEGS:
        print(f"running the {leg} leg ...", file=sys.stderr, flush=True)
        reached |= run_leg(leg)
    functions = production_functions()
    unreached = {name: lines for key, (name, lines) in functions.items() if key not in reached}
    allowed, bad = allow_list()
    new = sorted(set(unreached) - allowed)
    total = sum(unreached.values())
    print(f"{len(unreached)} of {len(functions)} production functions unreached ({total:,d} lines)")
    for name in sorted(unreached):
        print(f"  {unreached[name]:5d}  {name}{'' if name in allowed else '   NOT ALLOWED'}")
    names = {name for name, _ in functions.values()}
    stale = sorted(n for n in allowed if n not in names or n not in unreached)
    for line in bad:
        print(f"allow-list: {line}")
    for name in stale:
        why = "reached" if name in names else "no such function"
        print(f"allow-list: {name} is {why}: drop it")
    for name in new:
        print(f"unreached and not allow-listed: {name}")
    return 1 if bad or stale or new else 0


if __name__ == "__main__":
    raise SystemExit(main())
