"""MPI-IO hints: ROMIO's collective-I/O hints (paper Table I) plus the
proposed E10 cache extensions (paper Table II).

Unknown hints are ignored (per the MPI standard, implementations are free
to ignore hints they do not understand); *known* hints with invalid values
raise :class:`HintError`, which is stricter than ROMIO but catches
experiment-configuration typos early.

Paper correspondence: Table I (ROMIO hints) and §III-A (the E10
extensions).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import partial
from typing import Any, Mapping, Optional

from repro import options
from repro.units import KiB, MiB, check_count, parse_size


class HintError(ValueError):
    """An understood hint was given a value outside its domain."""


_TRISTATE = ("enable", "disable", "automatic")
_CACHE_MODES = ("enable", "disable", "coherent")
# "flush_none" is an evaluation extension: cache but never synchronise —
# used to measure the theoretical bandwidth (TBW) series of Figs. 4/7/9.
_FLUSH_FLAGS = ("flush_immediate", "flush_onclose", "flush_none")
_ONOFF = ("enable", "disable")
#: The domain of every string-valued choice hint, checked however the
#: object was built (``Hints.validate``).
_CHOICES = {
    "romio_cb_write": _TRISTATE,
    "e10_cache": _CACHE_MODES,
    "e10_cache_flush_flag": _FLUSH_FLAGS,
    "e10_cache_discard_flag": _ONOFF,
    "e10_cache_kind": options.CACHE_KINDS,
}
#: The size and count hints, each a positive integer; the ``_UNSET`` ones
#: may also be None (the file system's or ROMIO's default).
_UNSET = ("cb_nodes", "striping_factor", "striping_unit")
_COUNTS = ("cb_buffer_size", "ind_wr_buffer_size", *_UNSET)


@dataclass
class Hints:
    """Parsed hint set attached to an open file handle.

    Field names follow the hint strings; see the ``from_info`` keys.
    """

    # --- Table I: collective I/O hints -------------------------------------
    romio_cb_write: str = "automatic"
    cb_buffer_size: int = 16 * MiB  # ROMIO default
    cb_nodes: Optional[int] = None  # default: one aggregator per node
    cb_config_spread: bool = True  # place aggregators evenly across nodes
    # --- file layout hints ---------------------------------------------------
    striping_factor: Optional[int] = None  # stripe count
    striping_unit: Optional[int] = None  # stripe size [bytes]
    # --- independent I/O -------------------------------------------------------
    ind_wr_buffer_size: int = 512 * KiB  # also the cache sync chunk size
    # --- Table II: proposed E10 cache extensions -----------------------------
    e10_cache: str = "disable"
    e10_cache_path: str = "/scratch"
    e10_cache_flush_flag: str = "flush_onclose"
    e10_cache_discard_flag: str = "enable"
    e10_cache_kind: str = field(
        default_factory=partial(options.get, "REPRO_CACHE_KIND")
    )

    unknown: dict[str, str] = field(default_factory=dict)

    # -- derived ----------------------------------------------------------------
    @property
    def cache_enabled(self) -> bool:
        return self.e10_cache in ("enable", "coherent")

    @property
    def cache_coherent(self) -> bool:
        return self.e10_cache == "coherent"

    @property
    def flush_immediate(self) -> bool:
        return self.e10_cache_flush_flag == "flush_immediate"

    @property
    def discard_on_close(self) -> bool:
        return self.e10_cache_discard_flag == "enable"

    # -- parsing -------------------------------------------------------------------
    @classmethod
    def from_info(cls, info: Optional[Mapping[str, Any]] = None) -> "Hints":
        """Build a hint set from an MPI_Info-like mapping of strings."""
        h = cls()
        if not info:
            return h
        values = h.__dict__
        for key, raw in info.items():
            value = str(raw)
            if key in _CHOICES:
                values[key] = _choice(key, value, _CHOICES[key])
            elif key == "cb_buffer_size":
                h.cb_buffer_size = _size(key, value)
            elif key == "cb_nodes":
                h.cb_nodes = _positive_int(key, value)
            elif key == "cb_config_spread":
                h.cb_config_spread = _choice(key, value, _ONOFF) == "enable"
            elif key == "striping_factor":
                h.striping_factor = _positive_int(key, value)
            elif key == "striping_unit":
                h.striping_unit = _size(key, value)
            elif key == "ind_wr_buffer_size":
                h.ind_wr_buffer_size = _size(key, value)
            elif key == "e10_cache_path":
                if not value.strip():
                    raise HintError(
                        f"hint e10_cache_path={value!r}: must be a non-empty path"
                    )
                h.e10_cache_path = value
            else:
                h.unknown[key] = value  # MPI says: ignore, but keep for inspection
        return h.validate()

    def validate(self) -> "Hints":
        """Cross-field sanity checks, and every choice hint against the
        domain ``from_info`` parses it against; returns self so calls chain.

        ``from_info`` validates each hint as it parses, but hints objects are
        also built directly by tests and experiment code — this catches
        nonsense values regardless of how the object was constructed.
        """
        values = self.__dict__  # every open validates: no call per good field
        for key in _COUNTS:
            value = values[key]
            if value.__class__ is int and value > 0:
                continue
            if value is not None or key not in _UNSET:
                check_count(f"hint {key}", value, HintError)
        if self.cb_config_spread.__class__ is not bool:
            raise HintError(
                f"hint cb_config_spread={self.cb_config_spread!r}: must be a bool"
            )
        if self.cache_enabled and not self.e10_cache_path.strip():
            raise HintError(
                f"hint e10_cache_path={self.e10_cache_path!r}: must be a "
                "non-empty path when e10_cache is enabled"
            )
        for key in _CHOICES:
            if values[key] not in _CHOICES[key]:
                raise HintError(
                    f"hint {key}={values[key]!r}: expected one of {_CHOICES[key]}"
                )
        return self

    def to_info(self) -> dict[str, str]:
        """Round-trip back to the string form (MPI_File_get_info)."""
        out: dict[str, str] = {}
        for f in fields(self):
            if f.name == "unknown":
                continue
            value = getattr(self, f.name)
            if value is None:
                continue
            if f.name == "cb_config_spread":
                out[f.name] = "enable" if value else "disable"
            else:
                out[f.name] = str(value)
        out.update(self.unknown)
        return out


def _choice(key: str, value: str, allowed: tuple[str, ...]) -> str:
    v = value.strip().lower()
    if v not in allowed:
        raise HintError(f"hint {key}={value!r}: expected one of {allowed}")
    return v


def _size(key: str, value: str) -> int:
    try:
        n = parse_size(value)
    except ValueError as exc:
        raise HintError(f"hint {key}={value!r}: {exc}") from exc
    if n <= 0:
        raise HintError(f"hint {key}={value!r}: must be positive")
    return n


def _positive_int(key: str, value: str) -> int:
    try:
        n = int(value)
    except ValueError as exc:
        raise HintError(f"hint {key}={value!r}: not an integer") from exc
    if n <= 0:
        raise HintError(f"hint {key}={value!r}: must be positive")
    return n
