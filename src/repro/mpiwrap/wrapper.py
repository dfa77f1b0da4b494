"""The deferred-close wrapper itself.

``MPIWrap.file_open`` applies the configured hints and — for sections with
``defer_close`` — first really-closes any outstanding handle of the same
base name (the simulated ``PMPI_File_close``), which is where a pending
cache synchronisation is waited for.  ``WrapHandle.close`` then returns
success immediately, keeping the handle for future reference, exactly as
the paper describes.  ``finalize`` (the overloaded ``MPI_Finalize``) closes
everything still outstanding.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional

from repro.mpiwrap.config import WrapConfig, base_name


class WrapHandle:
    """What the application sees instead of the raw MPI file handle."""

    def __init__(self, wrap: "MPIWrap", inner, rank: int, deferred: bool):
        self.wrap = wrap
        self.inner = inner
        self.rank = rank
        self.deferred = deferred
        self.pretend_closed = False

    # pass-through I/O ---------------------------------------------------------
    def write_all(self, access):
        self._check()
        n = yield from self.inner.write_all(access)
        return n

    # the interposed close --------------------------------------------------------
    def close(self):
        """Generator: defer or really close, per the matched config section."""
        self._check()
        if self.deferred:
            # 'our MPI_File_close implementation will return success.
            #  Nevertheless, the file will not be really closed.'
            self.pretend_closed = True
            self.wrap._outstanding[(self.rank, base_name(self.inner.fd.path))] = self
            return
        yield from self.inner.close()
        self.pretend_closed = True

    def _check(self) -> None:
        if self.pretend_closed and not self.deferred:
            raise RuntimeError("operation on closed file")


class MPIWrap:
    """The wrapper library instance (one per simulated application)."""

    def __init__(self, layer, config: WrapConfig):
        self.layer = layer
        self.config = config
        self._outstanding: dict[tuple[int, str], WrapHandle] = {}

    def file_open(self, rank: int, path: str, info: Optional[Mapping[str, Any]] = None):
        """Generator: the interposed ``MPI_File_open``."""
        section = self.config.match(path)
        hints: dict[str, Any] = dict(info or {})
        deferred = False
        if section is not None:
            # Config-file hints take precedence over application hints, the
            # point being to tune legacy applications without recompiling.
            hints.update(section.hints)
            deferred = section.defer_close
        if deferred:
            prev = self._outstanding.pop((rank, base_name(path)), None)
            if prev is not None:
                # Real close of the previous file in the group: triggers the
                # cache-synchronisation completion check.
                yield from prev.inner.close()
        fh = yield from self.layer.open(rank, path, hints)
        return WrapHandle(self, fh, rank, deferred)

    def finalize(self, rank: int):
        """Generator: the interposed ``MPI_Finalize`` — close stragglers."""
        mine = [key for key in self._outstanding if key[0] == rank]
        for key in mine:
            handle = self._outstanding.pop(key)
            yield from handle.inner.close()

    def outstanding_count(self, rank: Optional[int] = None) -> int:
        if rank is None:
            return len(self._outstanding)
        return sum(1 for (r, _) in self._outstanding if r == rank)
