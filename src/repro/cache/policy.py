"""Cache policy derived from the Table II hints.

Paper correspondence: §III-A hint semantics, Table II configurations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # importing repro.romio here would close an import cycle
    from repro.romio.hints import Hints


@dataclass(frozen=True)
class CachePolicy:
    enabled: bool
    coherent: bool
    flush_mode: str  # "flush_immediate" | "flush_onclose" | "flush_none"
    discard_on_close: bool
    cache_path: str
    sync_chunk: int  # ind_wr_buffer_size
    # Cache backend: "extent" (sparse file on the scratch SSD) or "nvmm"
    # (write-ahead log on persistent memory, repro.cache.nvmlog).
    cache_kind: str = "extent"

    # Sync-thread fault handling: transient failures are retried in place
    # with exponential backoff, then the remainder of the request is
    # re-queued at the tail a bounded number of times before giving up.
    sync_retry_limit: int = 4
    sync_backoff_base: float = 2e-3
    sync_backoff_factor: float = 2.0
    sync_requeue_limit: int = 2

    @property
    def flush_immediate(self) -> bool:
        return self.flush_mode == "flush_immediate"

    @property
    def flush_never(self) -> bool:
        return self.flush_mode == "flush_none"

    @classmethod
    def from_hints(cls, hints: Hints) -> "CachePolicy":
        hints.validate()
        return cls(
            enabled=hints.cache_enabled,
            coherent=hints.cache_coherent,
            flush_mode=hints.e10_cache_flush_flag,
            discard_on_close=hints.discard_on_close,
            cache_path=hints.e10_cache_path,
            sync_chunk=hints.ind_wr_buffer_size,
            cache_kind=hints.e10_cache_kind,
        )
