"""The environment has one reader: :mod:`repro.options`.

No other module under ``src/repro`` touches ``os.environ``, ``os.getenv``
or ``os.putenv`` (read off the source with ``ast``, as
``tests/test_reference.py`` does for the reference stack), and every
``REPRO_*`` variable the repository names — code, tests, tools, benchmarks,
CI and docs — is a row of the options table, live or retired.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from repro import options
from tests.test_reference import modules

ROOT = Path(__file__).resolve().parents[1]

ENVIRONMENT = {"environ", "getenv", "putenv"}


def test_only_the_options_module_touches_the_environment():
    touches = sorted(
        (name, node.lineno)
        for name, tree in modules().items()
        for node in ast.walk(tree)
        if name != "repro.options"
        and (
            (isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT)
            or (isinstance(node, ast.alias) and node.name in ENVIRONMENT)
        )
    )
    assert touches == []


def test_every_variable_named_is_a_row():
    sources = [
        *(ROOT / "src").rglob("*.py"),
        *(ROOT / "tests").rglob("*.py"),
        *(ROOT / "tools").rglob("*.py"),
        *(ROOT / "benchmarks").rglob("*.py"),
        *(ROOT / "docs").rglob("*.md"),
        ROOT / ".github" / "workflows" / "ci.yml",
        ROOT / "README.md",
    ]
    named = {
        (name, path.relative_to(ROOT).as_posix())
        for path in sources
        for name in re.findall(r"REPRO_[A-Z_]+", path.read_text(encoding="utf-8"))
    }
    assert named, "no REPRO_* variable found: the scan is looking elsewhere"
    rows = options.LIVE.keys() | options.RETIRED.keys()
    assert sorted((name, where) for name, where in named if name not in rows) == []
