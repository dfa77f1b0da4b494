"""Line counts of the simulator's source: production, reference, total.

The production modules are every ``.py`` file under ``src/`` except
``src/repro/reference.py``, the reference stack's own code
(``Machine(reference=True)``); a change reports both counts and their sum,
and ROADMAP's size target is measured on the production count.  Lines are
physical lines, blank and comment lines included (what ``wc -l`` counts).

Usage::

    python tools/loc.py
"""

from __future__ import annotations

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
REFERENCE = SRC / "repro" / "reference.py"


def count(path: Path) -> int:
    return len(path.read_bytes().splitlines())


def line_counts() -> dict[str, int]:
    """``{"production", "reference", "total"}`` line counts."""
    production = sum(count(path) for path in SRC.rglob("*.py") if path != REFERENCE)
    reference = count(REFERENCE)
    return {"production": production, "reference": reference, "total": production + reference}


def main() -> int:
    counts = line_counts()
    print(f"production  {counts['production']:>7,d}  src/ minus repro/reference.py")
    print(f"reference   {counts['reference']:>7,d}  src/repro/reference.py")
    print(f"total       {counts['total']:>7,d}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
