"""Every ``REPRO_*`` environment variable, in one table, with one reader.

A live row gives a variable's domain and default; :func:`get` reads it and
raises a ``ValueError`` naming the variable for a value outside the domain.
A retired row names the replacement; :func:`refusal` words the error for
the first retired variable that is set, which a
:class:`~repro.machine.Machine` and the entry points raise.  No other
module reads the environment (``tests/test_options.py``).
"""

from __future__ import annotations

import os
from typing import Optional

#: ``ClusterConfig.ssd_kind``: the seek+stream SSD, or page/block/LUN flash
#: with a page-mapped FTL (:mod:`repro.hw.flash`).
SSD_KINDS = ("stream", "ftl")
#: The ``e10_cache_kind`` hint: extent files on the scratch SSD (the paper's
#: design), or a write-ahead log on NVMM (:mod:`repro.cache.nvmlog`).
CACHE_KINDS = ("extent", "nvmm")

#: ``name: (domain, default)``; a domain is the tuple of accepted values,
#: ``int`` (a whole number >= 1) or ``str`` (any non-empty text).
LIVE = {
    "REPRO_SSD": (SSD_KINDS, "stream"),  # ssd_kind of a config built without one
    "REPRO_CACHE_KIND": (CACHE_KINDS, "extent"),  # the e10_cache_kind default
    "REPRO_JOBS": (int, None),  # sweep workers (CLI: cores - 1, library: 1)
    "REPRO_CACHE": (("0", "1"), "1"),  # 0 turns the default result cache off
    "REPRO_CACHE_DIR": (str, ".repro_cache"),  # the result cache's root
}

_REFERENCE = (
    "retired in PR 22: pass `reference=True` for the original "
    "stack (heapq engine, naive fabric, generator flush)"
)
#: ``name: what replaced it``.
RETIRED = {
    "REPRO_ENGINE": _REFERENCE,
    "REPRO_FABRIC": _REFERENCE,
    "REPRO_DATAPLANE": _REFERENCE,
    "REPRO_SCALE": "retired: pass `--scale` instead (1.0 = paper size)",
    "REPRO_FULL_SWEEP": "retired: pass `--full-sweep` instead",
}

_DOMAINS = {int: "a whole number >= 1", str: "a non-empty path"}


def get(name: str):
    """Live variable ``name``: its default when unset, else its value (an
    int for an ``int`` domain)."""
    domain, default = LIVE[name]
    raw = os.environ.get(name)
    if raw is None:
        return default
    if domain is int and raw.strip().isdecimal() and int(raw) >= 1:
        return int(raw)
    if (domain is str and raw) or (isinstance(domain, tuple) and raw in domain):
        return raw
    what = _DOMAINS.get(domain) or f"one of {domain}"
    raise ValueError(f"{name}={raw!r}: must be {what}")


def refusal() -> Optional[str]:
    """The error for the first retired variable that is set, or None."""
    for name, replacement in RETIRED.items():
        if name in os.environ:
            # An old script must not go silently green on what replaced it.
            return f"{name}={os.environ[name]!r} is set, but {name} was {replacement}"
    return None
