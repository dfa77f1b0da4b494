"""The production modules stay within ROADMAP's size target.

``tools/loc.py`` counts the production modules (``src/`` minus
``repro/reference.py``).  The target is ROADMAP's ≤ 16,000 lines, not
whatever they measure today: a change may grow them back up to it, but
not past it.
"""

from tests.conftest import load_tool

#: ROADMAP's target for the production modules, in physical lines.
PRODUCTION_LINES = 16_000


def test_the_production_modules_are_within_the_size_target():
    production = load_tool("loc").line_counts()["production"]
    assert production <= PRODUCTION_LINES, f"{production:,d} production lines"
