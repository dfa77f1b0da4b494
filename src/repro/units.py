"""Size and time units plus parsing helpers used throughout the library.

All sizes are plain ``int`` bytes and all times are ``float`` seconds; these
constants keep configuration code readable (``4 * MiB`` instead of
``4194304``) and :func:`parse_size` accepts the human-readable strings used
by MPI-IO hint values (e.g. ``"4m"``, ``"512k"``, ``"64MB"``).

Paper correspondence: none (shared constants; the §IV grids are stated
in these units).
"""

from __future__ import annotations

import math
from numbers import Integral

# Binary size units (bytes).
KiB = 1024
MiB = 1024 * KiB
GiB = 1024 * MiB
TiB = 1024 * GiB

# Decimal size units, occasionally used for device datasheet numbers.
KB = 1000
MB = 1000 * KB
GB = 1000 * MB

# Time units (seconds).
USEC = 1e-6
MSEC = 1e-3

_SUFFIXES = {
    "": 1,
    "b": 1,
    "k": KiB,
    "kb": KiB,
    "kib": KiB,
    "m": MiB,
    "mb": MiB,
    "mib": MiB,
    "g": GiB,
    "gb": GiB,
    "gib": GiB,
    "t": TiB,
    "tb": TiB,
    "tib": TiB,
}


def parse_size(value: int | str) -> int:
    """Parse a byte count from an int or a string like ``"4m"`` / ``"512 KiB"``.

    Suffixes are case-insensitive and binary (``k`` = 1024) following the
    ROMIO hint convention.  Raises ``ValueError`` for malformed input or
    negative sizes.
    """
    if isinstance(value, bool):
        raise ValueError(f"not a size: {value!r}")
    if isinstance(value, int):
        if value < 0:
            raise ValueError(f"negative size: {value}")
        return value
    text = str(value).strip().lower().replace(" ", "")
    idx = len(text)
    while idx > 0 and text[idx - 1].isalpha():
        idx -= 1
    num, suffix = text[:idx], text[idx:]
    if suffix not in _SUFFIXES:
        raise ValueError(f"unknown size suffix {suffix!r} in {value!r}")
    if not num:
        raise ValueError(f"missing numeric part in {value!r}")
    try:
        scalar = float(num)
    except ValueError as exc:
        raise ValueError(f"malformed size {value!r}") from exc
    if not scalar < math.inf:  # NaN or infinity
        raise ValueError(f"not a finite size: {value!r}")
    if scalar < 0:
        raise ValueError(f"negative size: {value!r}")
    return int(round(scalar * _SUFFIXES[suffix]))


def check_count(name: str, value, error: type[Exception] = ValueError) -> None:
    """Raise ``error`` naming ``name`` and ``value`` unless ``value`` is a
    positive integer (a bool is not one).  A hot caller skips the call for
    a positive plain ``int``."""
    if value.__class__ is not int and (
        value.__class__ is bool or not isinstance(value, Integral)
    ):
        raise error(f"{name}={value!r}: must be an integer")
    if value <= 0:
        raise error(f"{name}={value!r}: must be positive")


def fmt_size(nbytes: float) -> str:
    """Render a byte count with a binary suffix, e.g. ``fmt_size(4*MiB) == '4.0MiB'``."""
    value = float(nbytes)
    for unit, name in ((TiB, "TiB"), (GiB, "GiB"), (MiB, "MiB"), (KiB, "KiB")):
        if abs(value) >= unit:
            return f"{value / unit:.1f}{name}"
    return f"{int(value)}B"


def fmt_bw(bytes_per_sec: float) -> str:
    """Render a bandwidth as GiB/s or MiB/s, whichever reads naturally."""
    if bytes_per_sec >= GiB:
        return f"{bytes_per_sec / GiB:.2f} GiB/s"
    return f"{bytes_per_sec / MiB:.1f} MiB/s"
